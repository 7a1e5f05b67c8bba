// Command iwdump inspects an InterWeave server's journal directory
// off-line: for each segment it loads the sealed base plus the log tail
// exactly as a restart would, and prints the segment's version, blocks
// (with their types, sizes, and version history), and registered type
// descriptors. It only reads: the log is parsed with the pure
// journal.ScanRecords, so a live server's directory is never touched.
//
// Usage:
//
//	iwdump /var/lib/interweave            # a journal directory
//	iwdump -blocks=false dir              # segment summaries only
//	iwdump dir/<hex>.iwseg                # one segment (base + its log)
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"interweave/internal/journal"
	"interweave/internal/server"
	"interweave/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iwdump:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("iwdump", flag.ContinueOnError)
	showBlocks := fs.Bool("blocks", true, "list every block")
	showDescs := fs.Bool("descs", true, "list registered type descriptors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: iwdump [-blocks] [-descs] <journal dir or segment file>")
	}
	target := fs.Arg(0)
	info, err := os.Stat(target)
	if err != nil {
		return err
	}
	// A segment is named by its file stem, hex(name), shared by its base
	// and its log.
	var stems []string
	if info.IsDir() {
		entries, err := os.ReadDir(target)
		if err != nil {
			return err
		}
		seen := make(map[string]bool)
		for _, e := range entries {
			if stem, ok := segmentStem(e.Name()); ok && !e.IsDir() && !seen[stem] {
				seen[stem] = true
				stems = append(stems, filepath.Join(target, stem))
			}
		}
		sort.Strings(stems)
		if len(stems) == 0 {
			return fmt.Errorf("no %s or %s files in %s", journal.BaseSuffix, journal.LogSuffix, target)
		}
	} else {
		stem, ok := segmentStem(target)
		if !ok {
			return fmt.Errorf("%s: not a %s or %s file", target, journal.BaseSuffix, journal.LogSuffix)
		}
		stems = []string{stem}
	}
	for _, stem := range stems {
		if err := dumpSegment(out, stem, *showBlocks, *showDescs); err != nil {
			return fmt.Errorf("%s: %w", stem, err)
		}
	}
	return nil
}

// segmentStem strips a journal file suffix from name.
func segmentStem(name string) (string, bool) {
	for _, suffix := range []string{journal.BaseSuffix, journal.LogSuffix} {
		if stem, ok := strings.CutSuffix(name, suffix); ok {
			return stem, true
		}
	}
	return "", false
}

// readIfExists returns a file's contents, or nil when it does not exist.
func readIfExists(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

func dumpSegment(out *os.File, stem string, showBlocks, showDescs bool) error {
	name, err := hex.DecodeString(filepath.Base(stem))
	if err != nil {
		return fmt.Errorf("file name is not hex(segment name): %w", err)
	}
	base, err := readIfExists(stem + journal.BaseSuffix)
	if err != nil {
		return err
	}
	log, err := readIfExists(stem + journal.LogSuffix)
	if err != nil {
		return err
	}
	// A torn tail is what a crash mid-append leaves; a restart drops it
	// too, so the dump shows exactly what recovery would.
	recs, _, torn := journal.ScanRecords(log)
	seg, err := server.LoadSegment(string(name), base, recs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "segment %q\n", seg.Name)
	fmt.Fprintf(out, "  version %d, %d blocks, %d primitive units, %d log records, %d bytes on disk\n",
		seg.Version, seg.NumBlocks(), seg.TotalUnits(), len(recs), len(base)+len(log))
	if torn {
		fmt.Fprintf(out, "  warning: log ends in a torn record, ignored as recovery would\n")
	}
	if showDescs {
		for _, serial := range seg.DescSerials() {
			b, _ := seg.DescBytes(serial)
			t, err := types.Unmarshal(b)
			if err != nil {
				fmt.Fprintf(out, "  desc %3d: <undecodable: %v>\n", serial, err)
				continue
			}
			fmt.Fprintf(out, "  desc %3d: %s (%d units/elem)\n", serial, describe(t), t.PrimCount())
		}
	}
	if showBlocks {
		fmt.Fprintf(out, "  %6s %-16s %6s %6s %8s %8s %8s\n",
			"serial", "name", "desc", "count", "units", "created", "modified")
		for _, b := range seg.Blocks() {
			name := b.Name
			if name == "" {
				name = "-"
			}
			fmt.Fprintf(out, "  %6d %-16s %6d %6d %8d %8d %8d\n",
				b.Serial, name, b.DescSerial, b.Count, b.Units(), b.CreatedVersion(), b.Version())
		}
	}
	fmt.Fprintln(out)
	return nil
}

// describe renders a type with one level of struct detail.
func describe(t *types.Type) string {
	if t.Kind() != types.KindStruct {
		return t.String()
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("{")
	for i := 0; i < t.NumFields(); i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		f := t.Field(i)
		fmt.Fprintf(&b, "%s %s", f.Name, f.Type)
	}
	b.WriteString("}")
	return b.String()
}

package bench

import (
	"fmt"
	"runtime"
	"time"

	"interweave/internal/arch"
	"interweave/internal/diff"
	"interweave/internal/mem"
	"interweave/internal/server"
	"interweave/internal/wire"
)

// TRServerRow is one row of the technical-report experiment the paper
// summarizes in Section 4.1: the server's data management cost for
// 1 MB of each data mix. The paper reports that server costs are
// "much lower than that on the client in all cases other than pointer
// and small_string because the server maintains data in wire format";
// the variable-length items (strings and MIPs), stored separately
// from their blocks, are the exception.
type TRServerRow struct {
	Name string
	// ServerApply is the server's cost to apply a fully modified
	// whole-block diff.
	ServerApply time.Duration
	// ServerCollect is the server's cost to build the update for a
	// lagging client (cache disabled, so the data is assembled from
	// the wire-format block store).
	ServerCollect time.Duration
	// ClientCollect is the client's whole-block translation cost,
	// for comparison.
	ClientCollect time.Duration
}

// TRServer measures server-side translation costs per data mix. Each
// cell is the fastest of iters interleaved repetitions, each started
// after a forced GC: under concurrent load one timing says little, and
// the minimum is the run least disturbed by it.
func TRServer(iters int) ([]TRServerRow, error) {
	if iters < 1 {
		iters = 1
	}
	prof := arch.AMD64()
	specs, err := fig4Mixes(prof)
	if err != nil {
		return nil, err
	}
	rows := make([]TRServerRow, 0, len(specs))
	for _, spec := range specs {
		row, err := trServerCase(prof, spec, iters)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func trServerCase(prof *arch.Profile, spec mixSpec, iters int) (TRServerRow, error) {
	row := TRServerRow{Name: spec.Name}
	c, err := setupFig4Case(prof, spec)
	if err != nil {
		return row, err
	}

	// Client whole-block translation, producing the update diff the
	// server will repeatedly apply.
	collect := func() (*wire.SegmentDiff, error) {
		return diff.CollectSegment(c.src.seg, diff.CollectOptions{
			Version: 1, NoDiff: true, Swizzle: c.src.swizzler(),
		})
	}
	update, err := collect()
	if err != nil {
		return row, err
	}

	// Creation diff: the same data plus block and descriptor records
	// (the case setup already consumed the pending flags).
	creation := &wire.SegmentDiff{Version: update.Version, Blocks: update.Blocks}
	c.src.seg.Blocks(func(b *mem.Block) bool {
		creation.News = append(creation.News, wire.NewBlock{
			Serial:     b.Serial,
			DescSerial: b.DescSerial,
			Count:      uint32(b.Count),
			Name:       b.Name,
		})
		return true
	})
	if err := c.src.attachDescs(creation); err != nil {
		return row, err
	}
	svr := server.NewSegment("b/tr")
	svr.SetDiffCacheCap(0)
	if _, _, err := svr.ApplyDiff(creation); err != nil {
		return row, err
	}

	// timed runs f after a GC and keeps the fastest time in *best.
	timed := func(best *time.Duration, f func() error) error {
		runtime.GC()
		start := time.Now()
		err := f()
		if d := time.Since(start); *best == 0 || d < *best {
			*best = d
		}
		return err
	}
	for i := 0; i < iters; i++ {
		// Client whole-block translation.
		if err := timed(&row.ClientCollect, func() error {
			_, err := collect()
			return err
		}); err != nil {
			return row, err
		}
		// Server apply: a fully modified whole-block diff.
		if err := timed(&row.ServerApply, func() error {
			_, _, err := svr.ApplyDiff(update)
			return err
		}); err != nil {
			return row, err
		}
		// Server collect: assemble the full update for a client one
		// version behind.
		before := svr.Version - 1
		if err := timed(&row.ServerCollect, func() error {
			d, err := svr.CollectDiff(before)
			if err == nil && d == nil {
				err = fmt.Errorf("no diff for lagging client")
			}
			return err
		}); err != nil {
			return row, err
		}
	}
	return row, nil
}

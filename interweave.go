// Package interweave is a Go implementation of InterWeave, the
// distributed middleware system for sharing strongly typed,
// pointer-rich data structures across heterogeneous platforms
// described in:
//
//	C. Tang, D. Chen, S. Dwarkadas, and M. L. Scott. "Efficient
//	Distributed Shared State for Heterogeneous Machine
//	Architectures." ICDCS 2003.
//
// InterWeave lets processes map shared segments into their address
// space and access the data with ordinary reads and writes, while the
// library transparently keeps cached copies coherent: modifications
// are detected with page twins, converted into machine-independent
// wire-format diffs at write-lock release, and applied through type
// descriptors on machines with different byte orders, word sizes and
// alignment rules. Pointers are swizzled to and from
// machine-independent pointers (MIPs) of the form
// "host:port/segment#block#offset".
//
// The package mirrors the paper's C API:
//
//	c, _ := interweave.NewClient(interweave.Options{})
//	h, _ := c.Open("host:port/list")         // IW_open_segment
//	_ = c.WLock(h)                           // IW_wl_acquire
//	blk, _ := c.Alloc(h, nodeType, 1, "head") // IW_malloc
//	... ordinary reads/writes through c.Heap() or Ref ...
//	_ = c.WUnlock(h)                         // IW_wl_release
//	addr, _ := c.MIPToPtr("host:port/list#head") // IW_mip_to_ptr
//
// Because Go's garbage-collected pointers cannot be write-protected
// or word-compared, a client's "process memory" is a simulated
// byte-addressable heap whose local data formats follow a
// configurable machine profile (see interweave/internal/arch); this
// preserves the paper's entire data path — twins, word-by-word
// diffing, swizzling, and heterogeneous local formats — at full
// fidelity.
package interweave

import (
	"time"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/mem"
	"interweave/internal/server"
	"interweave/internal/types"
)

// Client is an InterWeave client process: a heap of cached segments
// plus connections to their servers.
type Client = core.Client

// Segment is an opaque handle to an open segment (IW_handle_t).
type Segment = core.Segment

// Options configures a client.
type Options = core.Options

// Addr is a simulated local machine address.
type Addr = mem.Addr

// Block is one typed allocation within a segment.
type Block = mem.Block

// Heap is a client's simulated address space.
type Heap = mem.Heap

// Type describes shared data in machine-independent form; declare
// types with the constructors below or compile them from IDL with
// cmd/iwidl.
type Type = types.Type

// Field is a named struct member.
type Field = types.Field

// Policy selects a relaxed coherence model.
type Policy = coherence.Policy

// Profile describes a simulated machine architecture.
type Profile = arch.Profile

// Server is an InterWeave server; embed one in tests or run
// cmd/iwserver.
type Server = server.Server

// ServerOptions configures a server.
type ServerOptions = server.Options

// NewClient returns a client with an empty heap (the equivalent of
// linking a process against the InterWeave library).
func NewClient(opts Options) (*Client, error) { return core.NewClient(opts) }

// NewServer returns a server, restoring every segment journaled in
// opts.JournalDir.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

// Type constructors (the output of the IDL compiler).

// Char returns the 8-bit character type.
func Char() *Type { return types.Char() }

// Int16 returns the 16-bit integer type.
func Int16() *Type { return types.Int16() }

// Int32 returns the 32-bit integer type.
func Int32() *Type { return types.Int32() }

// Int64 returns the 64-bit integer type.
func Int64() *Type { return types.Int64() }

// Float32 returns the 32-bit float type.
func Float32() *Type { return types.Float32() }

// Float64 returns the 64-bit float type.
func Float64() *Type { return types.Float64() }

// StringOf returns a fixed-capacity string type.
func StringOf(capacity int) (*Type, error) { return types.StringOf(capacity) }

// PointerTo returns a pointer type; targets may be struct shells from
// NewStruct, which is how recursive types are declared.
func PointerTo(elem *Type) (*Type, error) { return types.PointerTo(elem) }

// ArrayOf returns a fixed-length array type.
func ArrayOf(elem *Type, n int) (*Type, error) { return types.ArrayOf(elem, n) }

// NewStruct returns an incomplete struct shell to be completed with
// SetFields (for recursive types).
func NewStruct(name string) *Type { return types.NewStruct(name) }

// StructOf builds a complete struct type.
func StructOf(name string, fields ...Field) (*Type, error) {
	return types.StructOf(name, fields...)
}

// Coherence policies (paper Section 3.2).

// Full requires the current version at every read-lock acquisition.
func Full() Policy { return coherence.Full() }

// Delta tolerates up to x versions of staleness.
func Delta(x uint32) Policy { return coherence.Delta(x) }

// Temporal tolerates staleness up to d.
func Temporal(d time.Duration) Policy { return coherence.Temporal(d) }

// DiffBased tolerates up to pct percent of stale primitive data
// units.
func DiffBased(pct float64) Policy { return coherence.Diff(pct) }

// Machine profiles for simulated heterogeneity.

// ProfileX86 is 32-bit little-endian with i386 alignment.
func ProfileX86() *Profile { return arch.X86() }

// ProfileAlpha is 64-bit little-endian.
func ProfileAlpha() *Profile { return arch.Alpha() }

// ProfileSparc is 32-bit big-endian.
func ProfileSparc() *Profile { return arch.Sparc() }

// ProfileMIPS64 is 64-bit big-endian.
func ProfileMIPS64() *Profile { return arch.MIPS64() }

// ProfileAMD64 is 64-bit little-endian.
func ProfileAMD64() *Profile { return arch.AMD64() }

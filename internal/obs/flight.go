package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// FlightRecorder is a bounded lock-free ring of recent structured
// Events — the always-on "black box" of the cluster observability
// plane. Where the Tracer records whole operations with sampling, the
// flight recorder keeps the last N structural incidents (lock
// transitions, failovers, demotions, fencing, evictions, commit-pipeline
// flushes) unconditionally, so a crash or a once-in-a-thousand chaos
// failure leaves a post-mortem artifact instead of a shrug.
//
// Cost model: one atomic index increment plus one atomic pointer
// store per event, no locks on the record path. A nil *FlightRecorder
// is the disabled state: Record on a nil receiver returns before
// reading the clock, matching the repo-wide nil-gating convention.
type FlightRecorder struct {
	slots []atomic.Pointer[Event]
	idx   atomic.Uint64
}

// DefaultFlightCapacity is the event-ring size used when a
// non-positive capacity is requested.
const DefaultFlightCapacity = 1024

// NewFlightRecorder returns a recorder holding the most recent
// capacity events (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[Event], capacity)}
}

// Record appends one event, overwriting the oldest once the ring is
// full. Safe for any number of concurrent recorders. A zero ev.At is
// stamped with time.Now — after the nil check, so the disabled path
// never reads the clock.
func (f *FlightRecorder) Record(ev Event) {
	if f == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	i := f.idx.Add(1) - 1
	f.slots[i%uint64(len(f.slots))].Store(&ev)
}

// Recorded returns the total number of events recorded since
// creation, including those the ring has since overwritten.
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.idx.Load()
}

// Capacity returns the ring size.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Events snapshots the ring's current contents, oldest first. Under
// concurrent recording the snapshot is each slot's latest committed
// event; ordering is by the events' At stamps (slot order is not
// reliable while writers race the reader), with ties kept in slot
// order so the result is stable.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	out := make([]Event, 0, len(f.slots))
	for i := range f.slots {
		if p := f.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Since returns the snapshot filtered to events at or after t,
// oldest first.
func (f *FlightRecorder) Since(t time.Time) []Event {
	evs := f.Events()
	i := sort.Search(len(evs), func(i int) bool { return !evs[i].At.Before(t) })
	return evs[i:]
}

// DumpTo writes the ring as one human-readable line per event,
// oldest first — the panic-dump and debugging format.
func (f *FlightRecorder) DumpTo(w io.Writer) {
	if f == nil {
		return
	}
	evs := f.Events()
	io.WriteString(w, "flight recorder: "+formatUint(uint64(len(evs)))+" of "+formatUint(f.Recorded())+" events\n")
	for _, ev := range evs {
		line := ev.At.Format("15:04:05.000000") + " " + ev.Name
		if ev.Seg != "" {
			line += " seg=" + ev.Seg
		}
		if ev.RPC != "" {
			line += " rpc=" + ev.RPC
		}
		if ev.N != 0 {
			line += " n=" + strconv.FormatInt(ev.N, 10)
		}
		if ev.Dur != 0 {
			line += " dur=" + ev.Dur.String()
		}
		if ev.Err != "" {
			line += " err=" + ev.Err
		}
		io.WriteString(w, line+"\n")
	}
}

// DumpOnPanic is the recover hook servers defer around goroutines
// whose panic should leave a post-mortem: if the goroutine is
// panicking it writes the panic value, the flight-recorder contents,
// and the stack to w, then re-panics with the original value so the
// process still dies loudly. A nil recorder or writer dumps nothing
// but still re-panics. Deferred directly:
//
//	defer flight.DumpOnPanic(os.Stderr, "session 7")
func (f *FlightRecorder) DumpOnPanic(w io.Writer, label string) {
	r := recover()
	if r == nil {
		return
	}
	if f != nil && w != nil {
		io.WriteString(w, "panic in "+label+": ")
		switch v := r.(type) {
		case error:
			io.WriteString(w, v.Error())
		case string:
			io.WriteString(w, v)
		default:
			b, _ := json.Marshal(v)
			w.Write(b)
		}
		io.WriteString(w, "\n")
		f.DumpTo(w)
		w.Write(debug.Stack())
	}
	panic(r)
}

// flightEvent is the stable JSON shape /debug/flight serves.
type flightEvent struct {
	Name    string `json:"name"`
	Seg     string `json:"seg,omitempty"`
	RPC     string `json:"rpc,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Err     string `json:"err,omitempty"`
	N       int64  `json:"n,omitempty"`
	At      string `json:"at"`
	DurNS   int64  `json:"dur_ns,omitempty"`
}

// FlightHandler serves the recorder at /debug/flight: a JSON array of
// recent events, oldest first. ?since= filters to events after an
// RFC 3339 timestamp or within a Go duration of now (e.g.
// ?since=30s).
func FlightHandler(f *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var evs []Event
		if since := r.URL.Query().Get("since"); since != "" {
			var t time.Time
			if d, err := time.ParseDuration(since); err == nil {
				t = time.Now().Add(-d)
			} else if ts, err := time.Parse(time.RFC3339Nano, since); err == nil {
				t = ts
			} else {
				http.Error(w, "since must be a duration (30s) or RFC 3339 timestamp", http.StatusBadRequest)
				return
			}
			evs = f.Since(t)
		} else {
			evs = f.Events()
		}
		out := make([]flightEvent, len(evs))
		for i, ev := range evs {
			out[i] = flightEvent{
				Name:    ev.Name,
				Seg:     ev.Seg,
				RPC:     ev.RPC,
				Attempt: ev.Attempt,
				Err:     ev.Err,
				N:       ev.N,
				At:      ev.At.Format(time.RFC3339Nano),
				DurNS:   int64(ev.Dur),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}

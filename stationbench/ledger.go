package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Parent is the index of the enclosing span
// (-1 for none); Session is the fleet slot (-1 outside sessions). A span
// with Calls > 0 is a per-session aggregate of many short calls (every
// frame through the channel or the interceptor): Start and End bound the
// first and last call and Busy is their summed duration.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Session int32  `json:"session"`
	Busy    int64  `json:"busy_ns,omitempty"`
	Calls   int32  `json:"calls,omitempty"`
}

// ledger keeps every span of the traced phase in memory; dump writes
// them once, at exit.
type ledger struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for children to point at.
func (l *ledger) add(s span) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

// finish sets the end of a span opened with add.
func (l *ledger) finish(i int32, end int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = end
}

// total sums the duration (or busy time) of every span with the name.
func (l *ledger) total(name string) (ns int64, count int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		if s.Calls > 0 {
			ns += s.Busy
		} else {
			ns += s.End - s.Start
		}
		count++
	}
	return ns, count
}

// dump writes the spans as JSON lines to dir/spans-<workload>-seed<n>.jsonl.
func (l *ledger) dump(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(l.spans)
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	note("wrote %d spans to %s", n, path)
	return f.Close()
}

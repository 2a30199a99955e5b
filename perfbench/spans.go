package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"gammajoin/internal/walltime"
)

// span is one host-clock interval around a call into a layer's public
// function, recorded from the benchmark's side of the call. Spans of one
// operation share Op; every span's Parent is the set-up or client/pass span
// that issued it (Parent 0 marks such a root span).
type span struct {
	ID, Op, Parent int
	Layer          string // module called: core, gamma, wisconsin; bench for roots
	Name           string // function called, e.g. core.Run
	Attr           string // algorithm for core.Run, relation for gamma.Load
	Start, End     int64  // ns since the run's epoch
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanLog keeps one goroutine's spans in memory until the run ends. Each
// client owns its own log, so recording takes no lock; ids are unique
// because every log draws from its own disjoint range.
type spanLog struct {
	epoch time.Time
	next  int
	spans []span
}

// newSpanLog returns a log whose ids start above base.
func newSpanLog(epoch time.Time, base int) *spanLog {
	return &spanLog{epoch: epoch, next: base}
}

func (l *spanLog) now() int64 { return walltime.Since(l.epoch).Nanoseconds() }

// begin opens a span and returns its index; end closes it. A nil log
// records nothing, which is how untraced runs skip tracing.
func (l *spanLog) begin(op, parent int, layer, name, attr string) int {
	if l == nil {
		return -1
	}
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Op: op, Parent: parent,
		Layer: layer, Name: name, Attr: attr, Start: l.now()})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l != nil && i >= 0 {
		l.spans[i].End = l.now()
	}
}

// id returns the span id at index i (0 for an untraced run).
func (l *spanLog) id(i int) int {
	if l == nil || i < 0 {
		return 0
	}
	return l.spans[i].ID
}

// mergeSpans joins the per-goroutine logs in start order.
func mergeSpans(logs ...*spanLog) []span {
	var all []span
	for _, l := range logs {
		if l != nil {
			all = append(all, l.spans...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// writeSpans writes the span table as TSV: one row per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\top\tparent\tlayer\tname\tattr\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%s\t%d\t%d\n",
			s.ID, s.Op, s.Parent, s.Layer, s.Name, s.Attr, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

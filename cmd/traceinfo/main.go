// Command traceinfo inspects a binary SCTM trace file: event and byte
// counts, dependency-class breakdown, chain-depth distribution, per-node
// hotspots, and the critical path under the recorded reference latencies.
//
// The analysis streams: events decode incrementally and per-event state is
// retired once the stream moves a window past it, so traces far larger than
// memory inspect at O(window) residency. -window bounds the resident span
// (0 = default 64Ki events, -1 = unbounded).
//
// Example:
//
//	tracegen -kernel fft -cores 64 -out fft.sctm
//	traceinfo fft.sctm
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"onocsim/internal/cliutil"
	"onocsim/internal/metrics"
	"onocsim/internal/trace"
)

func main() {
	verbose := flag.Bool("v", false, "also print the critical path event list")
	window := flag.Int("window", 0, "dependency-span window in events (0 = default, -1 = unbounded)")
	flag.Parse()
	var err error
	if flag.NArg() != 1 {
		err = cliutil.Usagef("usage: traceinfo [-v] [-window n] <trace.sctm>")
	} else {
		err = run(flag.Arg(0), *verbose, *window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

func run(path string, verbose bool, window int) error {
	src, err := trace.NewFileSource(path)
	if err != nil {
		return err
	}
	// The path event list is only reconstructible with per-event predecessor
	// links (O(events) memory), so pay for it only under -v.
	an, err := trace.StreamAnalyze(src, trace.StreamOptions{Window: window, Paths: verbose})
	if err != nil {
		return err
	}
	return report(os.Stdout, path, an, src, verbose)
}

// report renders an analysis. It is a pure function of the Analysis (plus a
// second decode pass for -v), which is what pins the streaming output
// byte-identical to the in-memory computation: the test feeds it both.
func report(w io.Writer, path string, an *trace.Analysis, src trace.Source, verbose bool) error {
	m := an.Meta
	st := an.Stats

	t := metrics.NewTable(fmt.Sprintf("trace %s — workload %q, %d nodes", path, m.Workload, m.Nodes),
		"metric", "value")
	t.AddRow("events", fmt.Sprintf("%d", st.Events))
	t.AddRow("payload bytes", fmt.Sprintf("%d", st.Bytes))
	t.AddRow("reference makespan (cycles)", fmt.Sprintf("%d", m.RefMakespan))
	t.AddRow("deps: program order", fmt.Sprintf("%d", st.DepEdges[trace.DepProgram]))
	t.AddRow("deps: causal", fmt.Sprintf("%d", st.DepEdges[trace.DepCausal]))
	t.AddRow("deps: synchronization", fmt.Sprintf("%d", st.DepEdges[trace.DepSync]))
	for k := trace.Kind(0); k < trace.Kind(5); k++ {
		t.AddRow("kind: "+k.String(), fmt.Sprintf("%d", st.ByKind[k]))
	}
	t.AddRow("critical path (cycles)", fmt.Sprintf("%d", an.CriticalPath.Length))
	t.AddRow("critical path (events)", fmt.Sprintf("%d", an.CriticalPathEvents))
	t.AddRow("critical fraction of makespan", fmt.Sprintf("%.1f%%", 100*float64(an.CriticalPath.Length)/float64(m.RefMakespan)))
	t.AddRow("max dependency span (events)", fmt.Sprintf("%d", an.MaxDepSpan))
	if err := t.WriteASCII(w); err != nil {
		return err
	}

	hist := an.DepthHist
	fmt.Fprintf(w, "\ndependency-chain depth distribution (%d levels):\n", len(hist))
	step := (len(hist) + 19) / 20
	if step < 1 {
		step = 1
	}
	for d := 0; d < len(hist); d += step {
		count := 0
		for k := d; k < d+step && k < len(hist); k++ {
			count += hist[k]
		}
		fmt.Fprintf(w, "  depth %5d..%-5d %8d events\n", d, min(d+step-1, len(hist)-1), count)
	}

	maxS, maxR, argS, argR := 0, 0, 0, 0
	for n := range an.Sends {
		if an.Sends[n] > maxS {
			maxS, argS = an.Sends[n], n
		}
		if an.Recvs[n] > maxR {
			maxR, argR = an.Recvs[n], n
		}
	}
	fmt.Fprintf(w, "\nhottest sender: node %d (%d msgs); hottest receiver: node %d (%d msgs)\n",
		argS, maxS, argR, maxR)

	if verbose {
		fmt.Fprintf(w, "\ncritical path events:\n")
		if err := printPathEvents(w, src, an.CriticalPath.Events); err != nil {
			return err
		}
	}
	return nil
}

// printPathEvents streams a second decode pass, printing the events on the
// critical path in path order. Dependencies always point backward, so the
// path is ID-ordered and one pass with O(path) memory suffices.
func printPathEvents(w io.Writer, src trace.Source, ids []trace.EventID) error {
	want := make(map[trace.EventID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	it, err := src.Pass()
	if err != nil {
		return err
	}
	defer it.Close()
	var e trace.Event
	for {
		ok, err := it.Next(&e)
		if err != nil {
			return err
		}
		if !ok {
			return it.Close()
		}
		if want[e.ID] {
			fmt.Fprintf(w, "  #%d %s %d->%d %dB gap=%d lat=%d\n",
				e.ID, e.Kind, e.Src, e.Dst, e.Bytes, e.Gap, e.RefArrive-e.RefInject)
		}
	}
}

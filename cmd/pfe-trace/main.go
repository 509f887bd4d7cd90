// pfe-trace inspects the synthetic benchmarks — static properties,
// disassembly, dynamic fragment statistics, control-flow predictability —
// and records pipeline event traces from full simulations.
//
// Usage:
//
//	pfe-trace -bench gcc                  # summary
//	pfe-trace -bench gcc -disasm 40       # first 40 instructions
//	pfe-trace -bench gcc -frags 10        # first 10 dynamic fragments
//	pfe-trace -bench gcc -fe PR-2x8w -chrome out.json   # Chrome trace
//	pfe-trace -bench gcc -fe W16 -jsonl out.jsonl -hist # JSONL + histograms
//	pfe-trace -merge-sweep sweep.json -merge-cycles cell.json -o merged.json
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "gcc", "benchmark name")
		disasm = flag.Int("disasm", 0, "disassemble the first N instructions")
		frags  = flag.Int("frags", 0, "print the first N dynamic fragments")
		budget = flag.Int64("budget", 300_000, "dynamic instructions to analyze")

		fe       = flag.String("fe", "", "simulate this front-end (e.g. W16, PR-2x8w) and record pipeline events")
		chrome   = flag.String("chrome", "", "write the recorded events as a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
		jsonl    = flag.String("jsonl", "", "write the recorded events as JSON Lines")
		events   = flag.Int("events", 1<<16, "ring capacity: how many of the most recent events to retain")
		histFlag = flag.Bool("hist", false, "print the pipeline histograms after simulating")
		warm     = flag.Int64("warmup", 20_000, "warmup instructions before measurement (simulation mode)")
		meas     = flag.Int64("measure", 60_000, "measured instructions (simulation mode)")

		mergeSweep  = flag.String("merge-sweep", "", "sweep-level span trace (pfe-bench -sweep-trace) to merge with -merge-cycles")
		mergeCycles = flag.String("merge-cycles", "", "per-cell cycle trace (pfe-trace -chrome) to merge with -merge-sweep")
		mergeOut    = flag.String("o", "merged.json", "output file for the merged Chrome trace")
	)
	flag.Parse()

	if *mergeSweep != "" || *mergeCycles != "" {
		if *mergeSweep == "" || *mergeCycles == "" {
			fmt.Fprintln(os.Stderr, "pfe-trace: -merge-sweep and -merge-cycles must be given together")
			os.Exit(1)
		}
		if err := mergeFiles(*mergeSweep, *mergeCycles, *mergeOut); err != nil {
			fmt.Fprintln(os.Stderr, "pfe-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote merged Chrome trace to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *mergeOut)
		return
	}

	spec, err := program.SpecByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := program.Build(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *fe != "" {
		simulate(*bench, *fe, *chrome, *jsonl, *events, *histFlag, *warm, *meas)
		return
	}
	if *chrome != "" || *jsonl != "" || *histFlag {
		fmt.Fprintln(os.Stderr, "pfe-trace: -chrome/-jsonl/-hist require -fe (which front-end to simulate)")
		os.Exit(1)
	}

	fmt.Printf("%s (input %s, seed %d)\n", p.Name, p.Input, spec.Seed)
	fmt.Printf("  static: %d instructions, %d KB code, %d KB data\n",
		p.NumInsts(), p.CodeBytes()/1024, p.DataSize/1024)
	mix := p.StaticMix()
	fmt.Printf("  mix: %d int-alu, %d int-mul, %d fp-add, %d fp-mul, %d load/store\n",
		mix[isa.ClassIntALU], mix[isa.ClassIntMul], mix[isa.ClassFPAdd],
		mix[isa.ClassFPMul], mix[isa.ClassLoadStore])

	if *disasm > 0 {
		for i := 0; i < *disasm && i < p.NumInsts(); i++ {
			pc := program.CodeBase + uint64(i*isa.InstBytes)
			in, _ := p.InstAt(pc)
			fmt.Printf("  %#08x: %s\n", pc, in)
		}
	}

	// Dynamic analysis: fragment statistics and predictability.
	m := emu.New(p)
	pred := bpred.New(bpred.DefaultConfig())
	var hist bpred.History
	var stream []frag.Dyn
	var total, nfrags, branches, taken, indirect int64
	lenHist := map[int]int64{}
	printed := 0
	for total < *budget {
		for len(stream) < 2*frag.MaxLen && !m.Halted() {
			d, err := m.Step()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			stream = append(stream, frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
		}
		if len(stream) == 0 {
			break
		}
		n, id := frag.Split(stream)
		if printed < *frags {
			fmt.Printf("  frag %d: %v len=%d\n", nfrags, id, n)
			printed++
		}
		for i := 0; i < n; i++ {
			in := stream[i].Inst
			if in.IsCondBranch() {
				branches++
				if stream[i].Taken {
					taken++
				}
			}
			if in.IsIndirect() {
				indirect++
			}
		}
		pred.Update(&hist, id)
		pred.Push(&hist, id.Key())
		lenHist[n]++
		stream = stream[:copy(stream, stream[n:])]
		total += int64(n)
		nfrags++
	}

	fmt.Printf("  dynamic (%d instructions, %d fragments):\n", total, nfrags)
	fmt.Printf("    avg fragment size:   %.2f\n", float64(total)/float64(nfrags))
	fmt.Printf("    cond branches:       %.1f%% of instructions (%.1f%% taken)\n",
		100*float64(branches)/float64(total), 100*float64(taken)/float64(branches))
	fmt.Printf("    indirect transfers:  %.2f%% of instructions\n", 100*float64(indirect)/float64(total))
	if acc, n := pred.Accuracy(); n > 0 {
		fmt.Printf("    fragment predictor:  %.3f accuracy over %d fragments\n", acc, n)
	}
	fmt.Printf("    length histogram:\n")
	for l := 1; l <= frag.MaxLen; l++ {
		if c := lenHist[l]; c > 0 {
			fmt.Printf("      %2d: %5.1f%%\n", l, 100*float64(c)/float64(nfrags))
		}
	}
}

// simulate runs one front-end on the benchmark with an event ring attached
// and exports the recorded events and histograms.
func simulate(bench, feName, chrome, jsonl string, capacity int, hist bool, warm, meas int64) {
	var machine pfe.Machine
	found := false
	for _, fe := range pfe.AllFrontEnds() {
		if string(fe) == feName {
			machine = pfe.Preset(fe)
			found = true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "pfe-trace: unknown front-end %q (choose from %v)\n", feName, pfe.AllFrontEnds())
		os.Exit(1)
	}

	ring := trace.NewRingSink(capacity)
	res, err := pfe.Run(bench, machine, pfe.RunOptions{
		WarmupInsts:  warm,
		MeasureInsts: meas,
		Events:       ring,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println(res)
	fmt.Printf("  events: %d recorded (%d emitted, %d overwritten; ring capacity %d)\n",
		len(ring.Events()), ring.Total(), ring.Dropped(), ring.Cap())

	if chrome != "" {
		if err := writeFile(chrome, func(f *os.File) error {
			return trace.WriteChromeTrace(f, ring.Events())
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  wrote Chrome trace to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", chrome)
	}
	if jsonl != "" {
		if err := writeFile(jsonl, func(f *os.File) error {
			return trace.WriteJSONL(f, ring.Events())
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  wrote JSONL events to %s\n", jsonl)
	}
	if hist {
		fmt.Print(res.Histograms())
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

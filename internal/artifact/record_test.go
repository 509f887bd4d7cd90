package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// goldenTapeBudgets are the recording budgets whose encodings
// TestEncodeTapeGolden pins: the two edge budgets (a single instruction and
// exactly one index block) and the tape lengths of the three benchmark
// workloads, paper-all (10k+30k), fig8-cold (100k+300k) and fig8-sampled
// (2M+1M), each plus TapeSlack.
var goldenTapeBudgets = []uint64{
	1,
	IndexStride,
	40_000 + TapeSlack,
	400_000 + TapeSlack,
	3_000_000 + TapeSlack,
}

// goldenTapeDigests holds, per budget, the SHA-256 over the suite's
// encodings in suite order, with the halting test spec last (its recording
// ends at OpHalt once the budget allows). They were recorded from the
// one-instruction-at-a-time recorder and serial block compression; any
// change to them is a change of the on-disk tape format.
var goldenTapeDigests = map[uint64]string{
	1:                     "4c327b68aece7574b5ca89db382ecc381ee27dc85227b44c238e458cf01253fc",
	IndexStride:           "ccecb09b818494d709b46cfd5fafdbf8276b6d9ca5d99cd1ca35bb5a164e068d",
	40_000 + TapeSlack:    "68417efe707d76caf69276f4692898a185b3f5f27d00a22ac6b4a5e36cd8669b",
	400_000 + TapeSlack:   "85e68f729a5af3543147d02e813f07962207c194486dc131c519c3b66e04e938",
	3_000_000 + TapeSlack: "e0dcaed477e88c15981f3de3cfebcfcc5a9b4458f03bfff4587b61acefc3c3d1",
}

// TestEncodeTapeGolden pins the PFET bytes of EncodeTape(Record(p, n)) for
// every suite program at the golden budgets, so a change to the recorder or
// the encoder that moves a single byte fails here rather than as a silent
// store-format drift. The fig8-sampled budget is skipped under -short.
func TestEncodeTapeGolden(t *testing.T) {
	specs := append(program.Suite(), program.TestSpec())
	progs := make([]*program.Program, len(specs))
	for i, spec := range specs {
		p, err := program.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	for _, n := range goldenTapeBudgets {
		if testing.Short() && n > 1_000_000 {
			continue
		}
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			all := sha256.New()
			var each []string
			for _, p := range progs {
				tape, err := Record(p, n)
				if err != nil {
					t.Fatal(err)
				}
				enc := EncodeTape(tape)
				all.Write(enc)
				sum := sha256.Sum256(enc)
				each = append(each, fmt.Sprintf("%s=%s", p.Name, hex.EncodeToString(sum[:8])))
			}
			if got, want := hex.EncodeToString(all.Sum(nil)), goldenTapeDigests[n]; got != want {
				t.Errorf("budget %d: encoding digest %s, want %s\nper program: %v", n, got, want, each)
			}
		})
	}
}

// BenchmarkRecordTape records and encodes the twelve suite programs at
// fig8-sampled's tape length (2M warm-up + 1M measured + TapeSlack), the
// set-up a cold sampled sweep pays once per program, and reports the cost
// per recorded instruction.
func BenchmarkRecordTape(b *testing.B) {
	const n = 3_000_000 + TapeSlack
	var progs []*program.Program
	for _, spec := range program.Suite() {
		p, err := program.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			tape, err := Record(p, n)
			if err != nil {
				b.Fatal(err)
			}
			EncodeTape(tape)
			insts += tape.Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// settledGoroutines waits up to a second for the goroutine count to fall to
// at most want (a goroutine that has signalled its end may still be on its
// way out) and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRecordLeavesNoGoroutine: the recording pipeline's emulator goroutine
// and EncodeTape's compression workers are gone once Record, EncodeTape and
// Cache.TapeInfo return, including when the emulator fails several batches
// into a recording or panics, whose panic Record raises on the caller's
// goroutine.
func TestRecordLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(what string) {
		t.Helper()
		if n := settledGoroutines(base); n > base {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s left %d goroutines behind:\n%s", what, n-base, buf)
		}
	}

	_, tape := recordSuiteTape(t, "gcc", 3*recBatch+5)
	check("Record")
	EncodeTape(tape)
	check("EncodeTape")

	// A countdown loop of 3*recBatch+3 instructions, then a jump to PC 0,
	// outside the code image: the emulator fails in the recording's fourth
	// batch.
	const loops = 3*recBatch/2 + 1
	bad, err := program.FromInsts("stray", []isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Imm: loops},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: -2},
		{Op: isa.OpJr, Rs1: 0},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Record(bad, 1<<20); err == nil || !strings.Contains(err.Error(), "outside code image") {
		t.Fatalf("Record of a stray jump: err %v, want the emulator's PC error", err)
	}
	check("a failing Record")

	// An emulator panic (an integer write to a register outside the
	// integer bank, which no validated program contains) reaches the
	// caller's goroutine, where a recover can catch it.
	wild, err := program.FromInsts("wild", []isa.Inst{{Op: isa.OpAddi, Rd: 1, Imm: 1}, {Op: isa.OpHalt}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wild.Code[0].Rd = isa.FPBase + 3
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Record of a panicking emulator returned instead of panicking")
			}
		}()
		Record(wild, 1<<20)
	}()
	check("a panicking Record")

	c := New(0)
	c.SetStore(openStoreT(t, t.TempDir()), strCodec{})
	if _, _, err := c.TapeInfo(gccSpec(t), 2*IndexStride); err != nil {
		t.Fatal(err)
	}
	check("TapeInfo")
}

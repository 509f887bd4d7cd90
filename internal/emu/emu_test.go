package emu

import (
	"errors"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

func TestTinyProgramRunsToCompletion(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	m := New(p)
	n, err := m.Run(5_000_000)
	if err != nil {
		t.Fatalf("run failed after %d instructions: %v", n, err)
	}
	if !m.Halted() {
		t.Fatalf("program did not halt within %d instructions", n)
	}
	if n < 1000 {
		t.Errorf("suspiciously short run: %d instructions", n)
	}
	if m.StrayAccesses() != 0 {
		t.Errorf("%d stray memory accesses", m.StrayAccesses())
	}
	t.Logf("tiny program: %d dynamic instructions, %d static", n, p.NumInsts())
}

func TestStepAfterHalt(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	m := New(p)
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestDynamicStreamIsConsistent(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	m := New(p)
	var prev DynInst
	for i := 0; i < 20000 && !m.Halted(); i++ {
		d, err := m.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if d.Seq != uint64(i) {
			t.Fatalf("step %d: seq %d", i, d.Seq)
		}
		if i > 0 && prev.NextPC != d.PC {
			t.Fatalf("step %d: prev NextPC %#x != PC %#x", i, prev.NextPC, d.PC)
		}
		if d.Inst.IsCondBranch() {
			want := d.PC + isa.InstBytes
			if d.Taken {
				want = uint64(int64(d.PC) + isa.InstBytes + int64(d.Inst.Imm)*isa.InstBytes)
			}
			if d.NextPC != want {
				t.Fatalf("branch at %#x: NextPC %#x, want %#x", d.PC, d.NextPC, want)
			}
		}
		if d.Inst.IsMem() && d.EA == 0 {
			t.Fatalf("memory op at %#x with zero EA", d.PC)
		}
		prev = d
	}
}

func TestDeterminism(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	m1, m2 := New(p), New(p)
	for i := 0; i < 10000; i++ {
		if m1.Halted() != m2.Halted() {
			t.Fatal("halt divergence")
		}
		if m1.Halted() {
			break
		}
		d1, err1 := m1.Step()
		d2, err2 := m2.Step()
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: %v %v", i, err1, err2)
		}
		if d1 != d2 {
			t.Fatalf("step %d: %+v != %+v", i, d1, d2)
		}
	}
}

func TestZeroRegisterStaysZero(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	m := New(p)
	for i := 0; i < 5000 && !m.Halted(); i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if m.IntReg(isa.RegZero) != 0 {
			t.Fatalf("r0 became %d", m.IntReg(isa.RegZero))
		}
	}
}

// TestSuitePrograms builds every suite benchmark, validates it, and runs a
// slice of it, checking that control flow never leaves the code image and
// that no memory access strays outside the mapped segments.
func TestSuitePrograms(t *testing.T) {
	for _, spec := range program.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p, err := program.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			m := New(p)
			n, err := m.Run(200_000)
			if err != nil {
				t.Fatalf("after %d instructions: %v", n, err)
			}
			if n < 200_000 && !m.Halted() {
				t.Fatalf("run stopped early at %d", n)
			}
			if m.StrayAccesses() != 0 {
				t.Errorf("%d stray accesses", m.StrayAccesses())
			}
			t.Logf("%s: %d static instructions (%.0f KB code)",
				spec.Name, p.NumInsts(), float64(p.CodeBytes())/1024)
		})
	}
}

// BenchmarkEmu measures live emulation per instruction on gcc, one Step at
// a time and in Fill batches of the tape recorder's size.
func BenchmarkEmu(b *testing.B) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Step", func(b *testing.B) {
		m := New(p)
		for i := 0; i < b.N; i++ {
			if _, err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fill4096", func(b *testing.B) {
		m := New(p)
		dyn := make([]frag.Dyn, 4096)
		ea := make([]uint64, 4096)
		for i := 0; i < b.N; i += len(dyn) {
			if _, err := m.Fill(dyn, ea); err != nil {
				b.Fatal(err)
			}
		}
	})
}

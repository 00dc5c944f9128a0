package harness

import (
	"fmt"

	"spectrebench/internal/cpu"
	"spectrebench/internal/engine"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

func init() {
	register(Experiment{
		ID: "smt-cost", Paper: "§3.3 / Table 1",
		Title: "Throughput cost of disabling SMT (why the MDS 'Disable SMT' row stays '!')",
		Run:   runSMTCost,
	})
}

// runSMTCost quantifies the paper's rationale for leaving hyperthreading
// on even where MDS makes it unsafe: two compute threads per core are
// compared running simultaneously (SMT) versus sequentially (nosmt).
// "Not using hyperthreading would have an even larger cost" than the
// buffer clears (§3.3).
func runSMTCost() (*Table, error) {
	t := &Table{
		ID: "smt-cost", Title: "Two compute threads: SMT wall cycles vs nosmt, per physical core",
		Columns: []string{"CPU", "SMT", "SMT (wall)", "nosmt (wall)", "nosmt slowdown"},
	}
	cs := declareCells()
	cells := make([]*engine.Task, len(model.All()))
	for i, m := range model.All() {
		if !m.SMT {
			continue
		}
		m := m
		cells[i] = cs.cell("smt/pair-wall", m, kernel.Mitigations{}, func() (any, error) {
			smtWall, seqWall, err := smtPairWall(m)
			if err != nil {
				return nil, err
			}
			return SMTPair{SMT: smtWall, Seq: seqWall}, nil
		})
	}
	for i, m := range model.All() {
		if cells[i] == nil {
			t.Rows = append(t.Rows, []string{m.Uarch, "", "N/A", "N/A", "N/A"})
			continue
		}
		v, err := cs.wait(cells[i])
		if err != nil {
			return nil, err
		}
		p := v.(SMTPair)
		t.Rows = append(t.Rows, []string{
			m.Uarch, "yes", cyc(p.SMT), cyc(p.Seq), pct(p.Seq/p.SMT - 1),
		})
	}
	t.Notes = append(t.Notes,
		"the Ryzen 3 1200 (Zen) is the study's only part without SMT",
		"MDS-vulnerable parts keep SMT on by default despite the cross-thread leak (Table 1's '!')")
	return t, nil
}

// SMTPair is the "smt/pair-wall" cell's value: wall cycles for the
// thread pair co-run on SMT siblings vs back-to-back on one core. Its
// fields are exported so the value round-trips through the gob-encoded
// cell store (internal/store) like every other cell value.
type SMTPair struct{ SMT, Seq float64 }

// smtComputeProgram is a swaptions-like FP loop at the given base.
func smtComputeProgram(base uint64, dataVA int64) *isa.Program {
	a := isa.NewAsm()
	a.MovI(isa.R1, dataVA)
	a.FMovI(5, 1.0001)
	a.FMovI(7, 0.999)
	a.MovI(isa.R8, 400)
	a.Label("loop")
	a.FLoad(2, isa.R1, 0)
	a.FMul(2, 5)
	a.FStore(isa.R1, 0, 2)
	a.FMul(7, 5)
	a.FAdd(7, 5)
	a.FMul(7, 5)
	a.FAdd(7, 5)
	a.SubI(isa.R8, 1)
	a.CmpI(isa.R8, 0)
	a.Jne("loop")
	a.Hlt()
	return a.MustAssemble(base)
}

// smtPairWall runs the thread pair both ways and returns the wall cycles.
func smtPairWall(m *model.CPU) (smtWall, seqWall float64, err error) {
	build := func() (*cpu.Core, *cpu.Core) {
		a := cpu.New(m)
		b := cpu.NewSMTSibling(a)
		for i, c := range []*cpu.Core{a, b} {
			pt := c.PTs.NewTable(uint16(i + 1))
			base := uint64(0x40_0000 + i*0x10_0000)
			data := uint64(0x80_0000 + i*0x10_0000)
			pt.MapRange(base, base, 4, false, true, false, false)
			pt.MapRange(data, data, 4, true, true, true, false)
			c.SetPageTable(pt)
			c.LoadProgram(smtComputeProgram(base, int64(data)))
			c.PC = base
		}
		return a, b
	}

	// SMT: co-run on sibling cores.
	a, b := build()
	wall, err := cpu.RunSMTPair(a, b, 10_000_000)
	if err != nil {
		return 0, 0, fmt.Errorf("smt pair: %w", err)
	}
	smtWall = float64(wall)

	// nosmt: the same two threads run back-to-back on one core.
	a2, b2 := build()
	if err := a2.RunUntilHalt(10_000_000); err != nil {
		return 0, 0, err
	}
	if err := b2.RunUntilHalt(10_000_000); err != nil {
		return 0, 0, err
	}
	seqWall = float64(a2.Cycles + b2.Cycles)
	return smtWall, seqWall, nil
}

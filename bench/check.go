package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// goldenJSON holds per-cell counters of every workload at full scale
// for a set of seeds, produced by the code the benchmark was defined
// on. Regenerate it with `go test -run TestUpdateGolden -update-golden`
// only when a change is meant to alter simulated results.
//
//go:embed testdata/counters.json
var goldenJSON []byte

const goldenSchema = "bfbp.bench.counters.v1"

type goldenFile struct {
	Schema    string                    `json:"schema"`
	Workloads map[string]goldenWorkload `json:"workloads"`
}

// goldenWorkload lists a workload's cells once and, per seed, one
// [branches, mispredicts, instructions] triple per cell in that order.
type goldenWorkload struct {
	Cells []string               `json:"cells"`
	Seeds map[string][][3]uint64 `json:"seeds"`
}

func loadGolden(data []byte) (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("golden counters: %w", err)
	}
	if g.Schema != goldenSchema {
		return g, fmt.Errorf("golden counters: schema %q, want %q", g.Schema, goldenSchema)
	}
	return g, nil
}

// goldenCounters returns the golden counters of workload w's cells for
// seed, or nil when the file has none for that seed.
func goldenCounters(w string, seed uint64, cells []string) ([]counters, error) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		return nil, err
	}
	gw, ok := g.Workloads[w]
	if !ok {
		return nil, nil
	}
	triples, ok := gw.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, nil
	}
	if !slices.Equal(gw.Cells, cells) || len(triples) != len(cells) {
		return nil, fmt.Errorf("golden counters of %s list other cells than the workload runs", w)
	}
	out := make([]counters, len(triples))
	for i, t := range triples {
		out[i] = counters{Branches: t[0], Mispredicts: t[1], Instructions: t[2]}
	}
	return out, nil
}

// checker judges every cell a run attempts. A cell fails on an error,
// on counters that differ from the golden ones or from the cell's
// earlier runs in the same process, or on counters no correct run can
// produce.
type checker struct {
	cells     []cell
	golden    []counters // nil when the seed is not in the golden file
	first     []counters
	seen      []bool
	attempted int
	failed    int
	problems  []string
}

func newChecker(cells []cell, golden []counters) *checker {
	return &checker{cells: cells, golden: golden, first: make([]counters, len(cells)), seen: make([]bool, len(cells))}
}

func (c *checker) observe(i int, got counters, err error) {
	c.attempted++
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case c.golden != nil && got != c.golden[i]:
		why = fmt.Sprintf("counters %+v, golden %+v", got, c.golden[i])
	case c.seen[i] && got != c.first[i]:
		why = fmt.Sprintf("counters %+v, earlier run %+v", got, c.first[i])
	default:
		why = c.cells[i].check(got)
	}
	if err == nil && !c.seen[i] {
		c.first[i], c.seen[i] = got, true
	}
	if why != "" {
		c.fail(c.cells[i].name() + ": " + why)
	}
}

func (c *checker) pass(p passResult) {
	for i := range p.counts {
		c.observe(i, p.counts[i], p.errs[i])
	}
}

// agree checks two runs of a cell that has no reference counters, such
// as a ledger predictor the workload does not run.
func (c *checker) agree(cl cell, a, b counters, err error) {
	c.attempted++
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case a != b:
		why = fmt.Sprintf("counters %+v on one path, %+v on the other", a, b)
	default:
		why = cl.check(a)
	}
	if why != "" {
		c.fail(cl.name() + ": " + why)
	}
}

func (c *checker) fail(problem string) {
	c.failed++
	c.problems = append(c.problems, problem)
}

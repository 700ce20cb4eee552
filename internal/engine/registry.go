package engine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
	"repro/internal/writeall"
)

// The three tables below are the one place each algorithm, adversary and
// program name is spelled out. The spec validators, the constructors, the
// CLIs' flag help and the adversary lab's hand-written grid all derive
// from them.

// table lists registry entries by name, in the order the CLIs document
// them.
type table[E any] []struct {
	name  string
	entry E
}

// names returns the names of the entries keep accepts, in table order.
func (t table[E]) names(keep func(E) bool) []string {
	var out []string
	for _, e := range t {
		if keep(e.entry) {
			out = append(out, e.name)
		}
	}
	return out
}

// find returns the entry called name; kind names the table in the error.
func (t table[E]) find(kind, name string) (E, error) {
	for _, e := range t {
		if e.name == name {
			return e.entry, nil
		}
	}
	var zero E
	return zero, fmt.Errorf("unknown %s %q", kind, name)
}

// everyEntry keeps every entry of a table.
func everyEntry[E any](E) bool { return true }

// algorithmEntry registers a Write-All algorithm. snapshot: it needs
// Config.AllowSnapshot, the unit-cost memory snapshot instruction of
// Theorem 3.2. xTree: it lays out X's progress tree at base N, the
// memory an adversary with needsXTree reads.
type algorithmEntry struct {
	new             func(seed int64) pram.Algorithm
	snapshot, xTree bool
}

var algorithms = table[algorithmEntry]{
	{"X", algorithmEntry{new: func(int64) pram.Algorithm { return writeall.NewX() }, xTree: true}},
	{"V", algorithmEntry{new: func(int64) pram.Algorithm { return writeall.NewV() }}},
	{"combined", algorithmEntry{new: func(int64) pram.Algorithm { return writeall.NewCombined() }, xTree: true}},
	{"W", algorithmEntry{new: func(int64) pram.Algorithm { return writeall.NewW() }}},
	{"oblivious", algorithmEntry{new: func(int64) pram.Algorithm { return writeall.NewOblivious() }, snapshot: true}},
	{"ACC", algorithmEntry{new: func(seed int64) pram.Algorithm { return writeall.NewACC(seed) }, xTree: true}},
	{"trivial", algorithmEntry{new: func(int64) pram.Algorithm { return writeall.NewTrivial() }}},
	{"sequential", algorithmEntry{new: func(int64) pram.Algorithm { return writeall.NewSequential() }}},
}

// adversaryEntry registers a failure adversary, built for the spec's
// parameters and the final n and p (which a restored snapshot may set
// instead of the spec). random: FailProb and RestartProb parameterize
// it, so the validators range-check them. needsXTree: it follows
// processors through X's progress tree, so a run pairs it only with an
// xTree algorithm. sim: a SimSpec accepts it.
type adversaryEntry struct {
	new                     func(s RunSpec, n, p int) pram.Adversary
	random, needsXTree, sim bool
}

var adversaries = table[adversaryEntry]{
	{"none", adversaryEntry{sim: true,
		new: func(RunSpec, int, int) pram.Adversary { return adversary.None{} }}},
	{"random", adversaryEntry{random: true, sim: true, new: func(s RunSpec, _, _ int) pram.Adversary {
		r := adversary.NewRandom(s.FailProb, s.RestartProb, s.Seed)
		r.MaxEvents = s.MaxEvents
		return r
	}}},
	{"thrashing", adversaryEntry{sim: true,
		new: func(RunSpec, int, int) pram.Adversary { return &adversary.Thrashing{} }}},
	{"rotating", adversaryEntry{sim: true,
		new: func(RunSpec, int, int) pram.Adversary { return &adversary.Thrashing{Rotate: true} }}},
	{"halving", adversaryEntry{
		new: func(RunSpec, int, int) pram.Adversary { return adversary.NewHalving() }}},
	{"postorder", adversaryEntry{needsXTree: true,
		new: func(_ RunSpec, n, p int) pram.Adversary { return writeall.NewPostOrder(writeall.NewX().Layout(n, p)) }}},
	{"stalking", adversaryEntry{new: func(_ RunSpec, n, p int) pram.Adversary {
		return writeall.NewStalking(writeall.NewX().Layout(n, p), true)
	}}},
	{"stalking-failstop", adversaryEntry{new: func(_ RunSpec, n, p int) pram.Adversary {
		return writeall.NewStalking(writeall.NewX().Layout(n, p), false)
	}}},
}

// simProgram is a sample program that checks its own output.
type simProgram interface {
	core.Program
	prog.Checker
}

// programEntry registers a sample program, built with its deterministic
// input (where it takes one) for n simulated processors or, when square
// is set, k×k matrices.
type programEntry struct {
	new    func(n, k int) simProgram
	square bool
}

var programs = table[programEntry]{
	{"assign", programEntry{new: func(n, _ int) simProgram { return prog.Assign{N: n} }}},
	{"reduce-sum", programEntry{new: func(n, _ int) simProgram { return prog.ReduceSum{N: n} }}},
	{"prefix-sum", programEntry{new: func(n, _ int) simProgram { return prog.PrefixSum{N: n} }}},
	{"list-rank", programEntry{new: func(n, _ int) simProgram { return prog.ListRank{N: n} }}},
	{"odd-even-sort", programEntry{new: func(n, _ int) simProgram {
		input := make([]pram.Word, n)
		for i := range input {
			input[i] = pram.Word((i*7919 + 13) % (4 * n))
		}
		return prog.OddEvenSort{N: n, Input: input}
	}}},
	{"matmul", programEntry{square: true, new: func(_, k int) simProgram {
		a := make([]pram.Word, k*k)
		b := make([]pram.Word, k*k)
		for i := range a {
			a[i] = pram.Word(i + 1)
			b[i] = pram.Word(len(b) - i)
		}
		return prog.MatMul{K: k, A: a, B: b}
	}}},
	{"broadcast", programEntry{new: func(n, _ int) simProgram { return prog.Broadcast{N: n} }}},
	{"max-reduce", programEntry{new: func(n, _ int) simProgram {
		input := make([]pram.Word, n)
		for i := range input {
			input[i] = pram.Word((i*2654435761 + 17) % (1 << 20))
		}
		return prog.MaxReduce{N: n, Input: input}
	}}},
	{"tree-roots", programEntry{new: func(n, _ int) simProgram { return prog.TreeRoots{N: n} }}},
}

// Algorithms returns the registered Write-All algorithm names, in the
// order the CLIs document them.
func Algorithms() []string { return algorithms.names(everyEntry) }

// Adversaries returns the registered adversary names for Write-All
// runs, in the order the CLIs document them.
func Adversaries() []string { return adversaries.names(everyEntry) }

// SimAdversaries returns the adversary names a SimSpec accepts.
func SimAdversaries() []string {
	return adversaries.names(func(a adversaryEntry) bool { return a.sim })
}

// Programs returns the sample program names, in the order cmd/pramsim
// documents them.
func Programs() []string { return programs.names(everyEntry) }

// NewAlgorithm constructs the named algorithm. The second result
// reports whether the algorithm needs Config.AllowSnapshot (the
// unit-cost memory snapshot instruction of Theorem 3.2).
func NewAlgorithm(name string, seed int64) (pram.Algorithm, bool, error) {
	a, err := algorithms.find("algorithm", name)
	if err != nil {
		return nil, false, err
	}
	return a.new(seed), a.snapshot, nil
}

// NewAdversary constructs the spec's adversary for the given final n
// and p (which may come from a restored snapshot rather than the spec).
func NewAdversary(s RunSpec, n, p int) (pram.Adversary, error) {
	a, err := adversaries.find("adversary", s.Adversary)
	if err != nil {
		return nil, err
	}
	return a.new(s, n, p), nil
}

// NewProgram constructs the named sample program (with its deterministic
// input, where the program takes one) and its output checker.
func NewProgram(name string, n, k int) (core.Program, prog.Checker, error) {
	p, err := programs.find("program", name)
	if err != nil {
		return nil, nil, err
	}
	pr := p.new(n, k)
	return pr, pr, nil
}

// ErrPostOrderAlgorithm rejects a run of the post-order adversary against
// an algorithm it cannot read: the adversary follows processors through
// algorithm X's progress tree at base N, which only the xTree algorithms
// lay out.
var ErrPostOrderAlgorithm = errors.New("adversary postorder needs X's progress tree")

// xTreeAlgorithms names the xTree algorithms for the post-order
// rejection: "X, combined or ACC".
func xTreeAlgorithms() string {
	names := algorithms.names(func(a algorithmEntry) bool { return a.xTree })
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/advlab"
	"repro/internal/engine"
	"repro/internal/pram"
)

// adversarialWL runs seeded Write-All runs under failure adversaries on
// one pooled Runner, stepping tick by tick: the attempt, Decide, validate
// and commit loop does all the work and batching never engages (X, V, W
// and V+X are not BatchCyclers). Adversary and kernel changes show here,
// where bigN-quiet predicts no change.
var adversarialWL = workload{
	name:  "adversarial",
	why:   "per-tick attempt/Decide/validate/commit loop under failure adversaries on a pooled Runner; batching never engages",
	tailQ: 0.9375,
	open:  openAdversarial,
}

// cycleSample is the share of processors whose update cycles a traced
// run times: one PID in cycleSample. Timing every per-tick cycle would
// cost more than many cycles do.
const cycleSample = 16

// advMaxTicks caps every run; no spec of the workload comes near it, so
// reaching it is a failure, not a long op.
const advMaxTicks = 1 << 20

// advSpec is one run of the adversarial workload.
type advSpec struct {
	key   string
	class string // adversary class: random, halving, thrashing, postorder, lab
	run   engine.RunSpec
	lab   *advlab.Strategy
}

func (a advSpec) adversary() (pram.Adversary, error) {
	if a.lab != nil {
		return a.lab.Compile()
	}
	return engine.NewAdversary(a.run, a.run.N, a.run.P)
}

// adversarialSpecs generates one round of the workload from seed. The mix
// is fixed — every algorithm against every adversary class at fixed sizes
// — so each seed costs about the same; the seed draws the random
// adversaries' streams, the lab strategies and the order.
func adversarialSpecs(seed int64, small bool) []advSpec {
	rng := rand.New(rand.NewSource(seed))
	n1, n2, n3 := advSizes(small)
	var specs []advSpec
	add := func(class string, rs engine.RunSpec, lab *advlab.Strategy) {
		key := fmt.Sprintf("%s/%s/%s/N=%d/P=%d/seed=%d", class, rs.Algorithm, rs.Adversary, rs.N, rs.P, rs.Seed)
		if lab != nil {
			key = fmt.Sprintf("lab/%s/N=%d/P=%d/%s", rs.Algorithm, rs.N, rs.P, lab.Digest())
		}
		specs = append(specs, advSpec{key: key, class: class, run: rs, lab: lab})
	}
	for _, alg := range []string{"X", "V", "combined", "W"} {
		for _, n := range []int{n1, n3} {
			for _, p := range []int{n / 4, n} {
				add("random", engine.RunSpec{Algorithm: alg, Adversary: "random", N: n, P: p,
					Seed: rng.Int63(), FailProb: 0.05, RestartProb: 0.5, MaxEvents: int64(n)}, nil)
			}
		}
		for _, p := range []int{n2 / 4, n2} {
			add("halving", engine.RunSpec{Algorithm: alg, Adversary: "halving", N: n2, P: p}, nil)
		}
		add("thrashing", engine.RunSpec{Algorithm: alg, Adversary: "thrashing", N: n1, P: n1 / 4}, nil)
		if alg == "X" || alg == "combined" {
			// V and W never finish under the rotating thrasher.
			add("thrashing", engine.RunSpec{Algorithm: alg, Adversary: "rotating", N: n1, P: n1 / 4}, nil)
		}
		for _, p := range []int{n2 / 4, n2} {
			lab := labStrategy(rng, n2, p)
			add("lab", engine.RunSpec{Algorithm: alg, N: n2, P: p}, &lab)
		}
	}
	for _, p := range []int{n3 / 4, n3} {
		add("postorder", engine.RunSpec{Algorithm: "X", Adversary: "postorder", N: n3, P: p}, nil)
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// advSizes returns the workload's three array sizes.
func advSizes(small bool) (n1, n2, n3 int) {
	if small {
		return 1 << 5, 1 << 6, 1 << 7
	}
	return 1 << 10, 1 << 11, 1 << 12
}

// labStrategy draws a one-rule lab strategy: periodic or progress-window
// kills of random or rotating PID sets with restarts, within an event
// budget of n so every run stays short.
func labStrategy(rng *rand.Rand, n, p int) advlab.Strategy {
	points := []string{advlab.PointBeforeReads, advlab.PointAfterReads, advlab.PointAfterWrite1}
	rule := advlab.Rule{
		Trigger:      advlab.Trigger{Kind: advlab.TriggerEvery, Period: 2 + rng.Intn(7), Duty: 1},
		Target:       advlab.Target{Kind: advlab.TargetRandom, K: 1 + rng.Intn(p/4)},
		Point:        points[rng.Intn(len(points))],
		RestartAfter: 1 + rng.Intn(4),
		Budget:       advlab.Budget{MaxEvents: int64(n), MaxDead: p / 2},
	}
	if rng.Intn(2) == 0 {
		lo := rng.Float64() / 2
		rule.Trigger = advlab.Trigger{Kind: advlab.TriggerProgress, MinFrac: lo, MaxFrac: lo + 0.25}
	}
	if rng.Intn(2) == 0 {
		rule.Target = advlab.Target{Kind: advlab.TargetRotate, K: rule.Target.K, Step: 1 + rng.Intn(4)}
	}
	return advlab.Strategy{Name: "generated", Seed: rng.Int63(), Rules: []advlab.Rule{rule}}
}

type advSession struct {
	specs  []advSpec
	runner *pram.Runner

	// Totals over the traced runs.
	newNs       time.Duration
	step        calls
	decide      calls
	ticks       int64
	s, sPrime   int64
	machineSelf time.Duration
}

func openAdversarial(ctx context.Context, e *env) (session, error) {
	s := &advSession{specs: adversarialSpecs(e.seed, e.small), runner: &pram.Runner{}}
	// The warm-up op is the same for every seed, so set-up costs the same.
	n, _, _ := advSizes(e.small)
	warm := advSpec{key: "warm-up", class: "random", run: engine.RunSpec{Algorithm: "X", Adversary: "random",
		N: n, P: n / 4, Seed: 1, FailProb: 0.05, RestartProb: 0.5, MaxEvents: int64(n)}}
	if o := s.run(ctx, warm); o.err != nil {
		return nil, o.err
	}
	return s, nil
}

func (s *advSession) round(ctx context.Context, tr *tracer) (round, error) {
	var r round
	start := time.Now()
	for _, sp := range s.specs {
		if tr != nil {
			r.ops = append(r.ops, s.tracedRun(sp, tr))
		} else {
			r.ops = append(r.ops, s.run(ctx, sp))
		}
	}
	r.wall = time.Since(start)
	return r, nil
}

func (s *advSession) config(sp advSpec) pram.Config {
	return pram.Config{N: sp.run.N, P: sp.run.P, MaxTicks: advMaxTicks}
}

// run is the untraced op: one pooled-Runner run.
func (s *advSession) run(ctx context.Context, sp advSpec) op {
	o := op{key: sp.key, class: sp.class, alg: sp.run.Algorithm}
	start := time.Now()
	alg, _, err := engine.NewAlgorithm(sp.run.Algorithm, sp.run.Seed)
	if err != nil {
		o.err = err
		return o
	}
	adv, err := sp.adversary()
	if err != nil {
		o.err = err
		return o
	}
	o.m, o.err = s.runner.RunCtx(ctx, s.config(sp), alg, adv)
	o.lat = time.Since(start)
	o.work, o.out = o.m.S(), outcome(o.m)
	return o
}

// tracedRun drives the run RunCtx drives — the pooled machine stepped
// tick by tick — with every Step, every Decide and the sampled
// processors' cycles timed.
func (s *advSession) tracedRun(sp advSpec, tr *tracer) op {
	o := op{key: sp.key, class: sp.class, alg: sp.run.Algorithm}
	var step, decide, cycle calls
	start := time.Now()
	alg, _, err := engine.NewAlgorithm(sp.run.Algorithm, sp.run.Seed)
	if err != nil {
		o.err = err
		return o
	}
	adv, err := sp.adversary()
	if err != nil {
		o.err = err
		return o
	}
	built := time.Now()
	m, err := s.runner.Machine(s.config(sp), sampleAlgorithm(alg, &cycle, cycleSample), timeAdversary(adv, &decide))
	made := time.Now()
	for err == nil {
		t := time.Now()
		var done bool
		done, err = m.Step()
		step.since(t)
		if done {
			break
		}
	}
	end := time.Now()
	o.err = err
	if m != nil {
		o.m = m.Metrics()
	}
	o.lat = end.Sub(start)
	o.work, o.out = o.m.S(), outcome(o.m)

	dec := tr.net(decide)
	cyc := time.Duration(float64(tr.net(cycle)) * float64(sp.run.P) / float64(sampledPIDs(sp.run.P, cycleSample)))
	self := time.Duration(step.Ns) - dec - cyc
	o.layers = map[string]time.Duration{
		"engine":    built.Sub(start),
		"adversary": dec,
		"writeall":  cyc,
		"pram":      made.Sub(built) + self,
	}
	id := tr.newOp()
	root := tr.span(id, 0, "run", start, end)
	tr.span(id, root, "engine.build", start, built)
	tr.span(id, root, "pram.machine", built, made)
	tr.calls(id, root, "pram.step", step)
	tr.calls(id, root, "adversary.decide", decide)
	tr.calls(id, root, "writeall.cycle.sampled", cycle)

	s.newNs += made.Sub(built)
	s.step.N += step.N
	s.step.Ns += step.Ns
	s.decide.N += decide.N
	s.decide.Ns += int64(dec)
	s.ticks += int64(o.m.Ticks)
	s.s += o.m.S()
	s.sPrime += o.m.SPrime()
	s.machineSelf += self
	return o
}

func (s *advSession) verify(context.Context, []round) error { return nil }

func (s *advSession) layerMetrics(rounds []round) map[string]float64 {
	var total time.Duration
	var ops int
	byClass := make(map[string][2]time.Duration) // adversary time, op time
	byAlg := make(map[string][2]time.Duration)   // cycle time, op time
	for _, r := range rounds[1:] {
		for _, o := range r.ops {
			ops++
			total += o.lat
			c := byClass[o.class]
			byClass[o.class] = [2]time.Duration{c[0] + o.layers["adversary"], c[1] + o.lat}
			a := byAlg[o.alg]
			byAlg[o.alg] = [2]time.Duration{a[0] + o.layers["writeall"], a[1] + o.lat}
		}
	}
	m := map[string]float64{
		"pram.new_ns":                  ratio(float64(s.newNs), float64(ops)),
		"pram.step_ns_per_tick":        ratio(s.step.Ns, s.ticks),
		"pram.machine_self_share":      ratio(s.machineSelf, total),
		"pram.incomplete_ratio":        ratio(s.sPrime-s.s, s.sPrime),
		"adversary.decide_ns_per_call": ratio(s.decide.Ns, s.decide.N),
	}
	for class, c := range byClass {
		m["adversary.decide_share."+class] = ratio(c[0], c[1])
	}
	for alg, a := range byAlg {
		m["writeall.cycle_share."+alg] = ratio(a[0], a[1])
	}
	return m
}

func (s *advSession) close() error {
	s.runner.Close()
	return nil
}

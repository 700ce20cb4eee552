package failstop

import (
	"io"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// Core machine types, re-exported from the simulator substrate.
type (
	// Word is the shared-memory word type.
	Word = pram.Word
	// Config parameterizes a machine run (input size N, processors P,
	// snapshot instruction, tick budget, packed memory, event sink) on
	// the paper's COMMON CRCW PRAM.
	Config = pram.Config
	// Metrics is the accounting of one run: completed work S, S', |F|,
	// overhead ratio, and update-cycle statistics.
	Metrics = pram.Metrics
	// Machine is one configured simulation run.
	Machine = pram.Machine
	// Runner executes many runs on one pooled Machine, reusing memory,
	// scratch state, and (via Resettable) processor state across runs.
	Runner = pram.Runner
	// Resettable marks Processor implementations whose state can be
	// reinitialized in place, letting machines recycle them across
	// restarts and pooled runs.
	Resettable = pram.Resettable
	// ArrayDoneHinter marks Algorithms with array-style Done predicates
	// ("cells [0, k) all non-zero"), enabling the machine's O(1)
	// incremental completion counter.
	ArrayDoneHinter = pram.ArrayDoneHinter
	// Algorithm is a fault-tolerant PRAM algorithm.
	Algorithm = pram.Algorithm
	// Adversary is an on-line failure/restart adversary.
	Adversary = pram.Adversary
	// MemoryView is a read-only view of the shared memory, as handed to
	// Algorithm.Done and adversaries.
	MemoryView = pram.MemoryView
	// Sink observes a run's cycle-, tick-, and run-level events.
	Sink = pram.Sink
	// CycleEvent reports one processor's update cycle outcome.
	CycleEvent = pram.CycleEvent
	// TickEvent reports one tick's aggregate profile.
	TickEvent = pram.TickEvent
	// RunEvent reports a finished run.
	RunEvent = pram.RunEvent
	// TickFunc adapts a function to a tick-only Sink.
	TickFunc = pram.TickFunc
	// MultiSink fans events out to several sinks in order.
	MultiSink = pram.MultiSink
	// ProcTracker is a Sink accumulating per-processor work and progress.
	ProcTracker = pram.ProcTracker
	// JSONL is a Sink streaming events as JSON lines.
	JSONL = pram.JSONL
	// Snapshotter marks components (processors, algorithms, adversaries)
	// whose private state can be captured into and restored from a
	// machine snapshot.
	Snapshotter = pram.Snapshotter
	// Snapshot is a machine's complete mid-run state, as captured by
	// Machine.Snapshot and replayed by Machine.RestoreSnapshot.
	Snapshot = pram.Snapshot
	// Program is an N-processor synchronous PRAM program for the robust
	// executor.
	Program = core.Program
	// Engine selects the executor's Write-All engine (EngineVX or
	// EngineX).
	Engine = core.Engine
)

// NewProcTracker returns a ProcTracker for p processors; pass it as
// Config.Sink.
func NewProcTracker(p int) *ProcTracker { return pram.NewProcTracker(p) }

// NewJSONL returns a JSONL sink writing to w; pass it as Config.Sink.
func NewJSONL(w io.Writer) *JSONL { return pram.NewJSONL(w) }

// Executor engines (Theorem 4.1).
const (
	// EngineVX interleaves algorithms V and X (the paper's construction;
	// work-optimal per Corollary 4.12).
	EngineVX = core.EngineVX
	// EngineX uses algorithm X alone (terminating but not work-optimal).
	EngineX = core.EngineX
)

// NewX returns the paper's algorithm X (Section 4.2): local progress-tree
// search with PID-bit descent; S = O(N * P^{log 1.5 + eps}) under any
// failure/restart pattern.
func NewX() Algorithm { return writeall.NewX() }

// NewXInPlace returns the Remark 7 in-place variant of X, which uses the
// Write-All array itself as the progress tree.
func NewXInPlace() Algorithm { return writeall.NewXInPlace() }

// NewV returns the paper's algorithm V (Section 4.1): synchronous
// allocate/work/update phases with an iteration wrap-around counter;
// S = O(N + P log^2 N + M log N), but termination is not guaranteed alone.
func NewV() Algorithm { return writeall.NewV() }

// NewCombined returns the Theorem 4.9 interleaving of V and X: the min of
// both bounds with guaranteed termination.
func NewCombined() Algorithm { return writeall.NewCombined() }

// NewW returns algorithm W of [KS 89], the fail-stop (no restart)
// baseline.
func NewW() Algorithm { return writeall.NewW() }

// NewOblivious returns the Theorem 3.2 snapshot algorithm; machines
// running it need Config.AllowSnapshot.
func NewOblivious() Algorithm { return writeall.NewOblivious() }

// NewACC returns the randomized coupon-clipping stand-in for the [MSP 90]
// algorithm analyzed in Section 5.
func NewACC(seed int64) Algorithm { return writeall.NewACC(seed) }

// NewTrivial returns the non-fault-tolerant parallel assignment baseline.
func NewTrivial() Algorithm { return writeall.NewTrivial() }

// NewSequential returns the single-processor checkpointing baseline.
func NewSequential() Algorithm { return writeall.NewSequential() }

// NewReplicated returns the quadratic maximal-redundancy baseline, whose
// private sweep positions starve under sustained restart churn - the trap
// the paper's shared-memory progress structures avoid.
func NewReplicated() Algorithm { return writeall.NewReplicated() }

// NoFailures returns the failure-free adversary.
func NoFailures() Adversary { return adversary.None{} }

// RandomFailures returns an adversary that fails each live processor with
// probability failProb per tick and restarts each dead one with
// probability restartProb, deterministically for a fixed seed.
func RandomFailures(failProb, restartProb float64, seed int64) Adversary {
	return adversary.NewRandom(failProb, restartProb, seed)
}

// BudgetedRandomFailures is RandomFailures with at most maxEvents failure
// and restart events in total (a failure pattern of size <= maxEvents).
func BudgetedRandomFailures(failProb, restartProb float64, seed, maxEvents int64) Adversary {
	a := adversary.NewRandom(failProb, restartProb, seed)
	a.MaxEvents = maxEvents
	return a
}

// ThrashingAdversary returns the Example 2.2 adversary: all processors
// read, all but one fail before writing, everyone restarts. With rotate
// set the survivor rotates, which starves iterative algorithms like V.
func ThrashingAdversary(rotate bool) Adversary {
	return &adversary.Thrashing{Rotate: rotate}
}

// HalvingAdversary returns the Theorem 3.1 pigeonhole lower-bound
// adversary, which forces Omega(N log N) completed work on any Write-All
// algorithm.
func HalvingAdversary() Adversary { return adversary.NewHalving() }

// PostOrderAdversary returns the Theorem 4.8 adversary against algorithm
// X for a Write-All instance of size n with p processors.
func PostOrderAdversary(n, p int) Adversary {
	return writeall.NewPostOrder(writeall.NewX().Layout(n, p))
}

// StalkingAdversary returns the Section 5 adversary that fails every
// processor touching one chosen leaf of the progress tree (of a size-n,
// p-processor ACC or X instance); restartable selects the failure model
// variant.
func StalkingAdversary(n, p int, restartable bool) Adversary {
	return writeall.NewStalking(writeall.NewX().Layout(n, p), restartable)
}

// RunWriteAll solves a Write-All instance: cfg.N cells, cfg.P processors,
// under adv. It returns the run's metrics; the Write-All postcondition is
// guaranteed on success.
func RunWriteAll(alg Algorithm, adv Adversary, cfg Config) (Metrics, error) {
	m, err := pram.New(cfg, alg, adv)
	if err != nil {
		return Metrics{}, err
	}
	return m.Run()
}

// SaveSnapshot writes a snapshot to path atomically (write-tmp-rename).
func SaveSnapshot(path string, s *Snapshot) error { return pram.SaveSnapshot(path, s) }

// LoadSnapshot reads a snapshot written by SaveSnapshot, verifying its
// format version and checksum.
func LoadSnapshot(path string) (*Snapshot, error) { return pram.LoadSnapshot(path) }

// Result is the outcome of a robust program execution.
type Result struct {
	// Metrics is the machine accounting for the whole program.
	Metrics Metrics
	// Memory is the final simulated shared memory.
	Memory []Word
}

// Execute runs an N-processor PRAM program on p restartable fail-stop
// processors under adv (Theorem 4.1), using the paper's combined V+X
// engine. Leave cfg zero-valued unless you need a custom policy or tick
// budget; N and P are set from the program and p.
func Execute(program Program, p int, adv Adversary, cfg Config) (Result, error) {
	return ExecuteWithEngine(program, p, adv, cfg, EngineVX)
}

// ExecuteWithEngine is Execute with an explicit Write-All engine.
func ExecuteWithEngine(program Program, p int, adv Adversary, cfg Config, engine Engine) (Result, error) {
	m, err := core.NewMachineWithEngine(program, p, adv, cfg, engine)
	if err != nil {
		return Result{}, err
	}
	metrics, err := m.Run()
	if err != nil {
		return Result{Metrics: metrics}, err
	}
	return Result{
		Metrics: metrics,
		Memory:  core.SimMemory(m.Memory(), program),
	}, nil
}

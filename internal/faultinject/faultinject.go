// Package faultinject is a deterministic, seedable failpoint registry
// for the harness's own I/O and execution layers. The paper's subject is
// surviving failures; this package holds the harness's recovery
// machinery (snapshot files, the sweep journal, the simulator's
// update-cycle attempts) to the same standard by letting tests and chaos
// runs inject write/fsync/rename errors, torn writes, silent bit
// corruption, and panics at named failpoints.
//
// A failpoint is a named site in harness code (e.g. "snapshot.write",
// "journal.sync", "kernel.cycle"). Production code resolves the point
// once ([Registry.Point]) and asks it whether to fire on each hit; an
// unarmed point resolves to nil and costs one nil check. Decisions are
// pure functions of (registry seed, point name, hit index or caller
// key), so a fault schedule is reproducible from the seed alone —
// chaos runs print their seed, and PRAM_FAULT_SEED replays it.
//
// Activation is either programmatic (Registry.Set / Registry.Enable) or
// via the environment:
//
//	PRAM_FAULTS="snapshot.sync=error:0.5,kernel.cycle=panic:0.001@64"
//	PRAM_FAULT_SEED=12345
//
// The directive grammar is name=mode[:prob][@after][#max] with modes
// off, error, torn, corrupt, and panic; prob defaults to 1, @after
// skips the first after hits, #max caps the number of fires.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the sentinel wrapped by every error-producing injected
// fault, so recovery paths can distinguish injected faults from real
// ones in tests.
var ErrInjected = errors.New("faultinject: injected fault")

// Mode selects what a firing failpoint does.
type Mode uint8

const (
	// Off disables the point.
	Off Mode = iota
	// Error returns an error wrapping ErrInjected from the operation.
	Error
	// Torn performs a prefix of the write, then returns an error — a
	// torn file write, as a crash mid-write leaves behind.
	Torn
	// Corrupt flips one bit of the written data and reports success —
	// silent media corruption, detectable only by checksums.
	Corrupt
	// Panic panics with an Injected value — a crashing worker.
	Panic
)

// String implements fmt.Stringer for Mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Error:
		return "error"
	case Torn:
		return "torn"
	case Corrupt:
		return "corrupt"
	case Panic:
		return "panic"
	default:
		return "invalid"
	}
}

func parseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "error":
		return Error, nil
	case "torn":
		return Torn, nil
	case "corrupt":
		return Corrupt, nil
	case "panic":
		return Panic, nil
	default:
		return Off, fmt.Errorf("faultinject: unknown mode %q", s)
	}
}

// Injected is the value a Panic-mode failpoint panics with, so recovery
// code (and tests) can recognize an injected panic.
type Injected struct {
	// Point is the failpoint name that fired.
	Point string
}

// String implements fmt.Stringer for Injected.
func (i Injected) String() string {
	return fmt.Sprintf("injected panic at failpoint %s", i.Point)
}

// Spec configures one failpoint.
type Spec struct {
	// Mode is what happens when the point fires; Off disables it.
	Mode Mode
	// Prob is the per-hit fire probability; values >= 1 (and 0, for
	// convenience) fire on every eligible hit.
	Prob float64
	// After skips the first After hits before the point becomes
	// eligible.
	After uint64
	// Max caps the total number of fires; 0 means unlimited.
	Max uint64
}

// Point is one armed failpoint. All methods are safe for concurrent use
// and safe on a nil receiver (a nil Point never fires), so production
// code can resolve a point once and guard each hit with a single check.
type Point struct {
	name  string
	seed  uint64
	spec  Spec
	hits  atomic.Uint64
	fires atomic.Uint64
}

// Name returns the failpoint name.
func (p *Point) Name() string { return p.name }

// Mode returns the configured mode.
func (p *Point) Mode() Mode {
	if p == nil {
		return Off
	}
	return p.spec.Mode
}

// Fire reports whether the fault fires at this hit, sequencing hits
// with an internal counter. Use it at failpoints that are hit from one
// goroutine at a time (file I/O); concurrent callers should prefer
// FireKeyed for decisions independent of arrival order.
func (p *Point) Fire() bool {
	if p == nil || p.spec.Mode == Off {
		return false
	}
	return p.fireAt(p.hits.Add(1) - 1)
}

// FireKeyed decides from a caller-supplied key (e.g. tick<<32|pid)
// instead of the hit counter, so concurrently hit failpoints fire at
// the same logical sites regardless of goroutine interleaving. The Max
// cap is still enforced but counts fires in arrival order.
func (p *Point) FireKeyed(key uint64) bool {
	if p == nil || p.spec.Mode == Off {
		return false
	}
	p.hits.Add(1)
	return p.fireAt(key)
}

func (p *Point) fireAt(i uint64) bool {
	if i < p.spec.After {
		return false
	}
	if p.spec.Max > 0 && p.fires.Load() >= p.spec.Max {
		return false
	}
	if p.spec.Prob > 0 && p.spec.Prob < 1 {
		// Top 53 bits of the mixed key give a uniform in [0, 1).
		u := float64(mix(p.seed^mix(i+0x9e3779b97f4a7c15))>>11) / float64(1<<53)
		if u >= p.spec.Prob {
			return false
		}
	}
	p.fires.Add(1)
	return true
}

// Hits returns how many times the point was consulted.
func (p *Point) Hits() uint64 {
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// Fires returns how many times the point fired.
func (p *Point) Fires() uint64 {
	if p == nil {
		return 0
	}
	return p.fires.Load()
}

// mix is the splitmix64 finalizer: a cheap, high-quality 64-bit mixer
// that makes every (seed, site) pair an independent coin.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Registry is a set of named failpoints sharing one seed. The zero
// Registry is not usable; build one with New. A nil *Registry is a
// valid "everything off" registry.
type Registry struct {
	seed int64
	mu   sync.Mutex
	pts  map[string]*Point
}

// New builds an empty registry whose fault schedule derives from seed.
func New(seed int64) *Registry {
	return &Registry{seed: seed, pts: make(map[string]*Point)}
}

// Seed returns the registry's seed, for reproduction logs.
func (r *Registry) Seed() int64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// Set arms (or, with Mode Off, disarms) the named failpoint and returns
// it. Re-setting a point resets its hit and fire counters.
func (r *Registry) Set(name string, s Spec) *Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &Point{name: name, seed: mix(uint64(r.seed)) ^ mix(hashString(name)), spec: s}
	r.pts[name] = p
	return p
}

// Point resolves the named failpoint, or nil when it is unarmed (or the
// registry itself is nil). Resolve once, check per hit.
func (r *Registry) Point(name string) *Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pts[name]
	if p == nil || p.spec.Mode == Off {
		return nil
	}
	return p
}

// Fires returns the fire count of the named point (0 when unarmed).
func (r *Registry) Fires(name string) uint64 { return r.Point(name).Fires() }

// Points returns the armed failpoints sorted by name, for observability
// surfaces that enumerate live fire counts (internal/obs).
func (r *Registry) Points() []*Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Point, 0, len(r.pts))
	for _, p := range r.pts {
		if p.spec.Mode != Off {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Enable parses a comma-separated directive list — the PRAM_FAULTS
// grammar, name=mode[:prob][@after][#max] — and arms each point.
func (r *Registry) Enable(directives string) error {
	for _, d := range strings.Split(directives, ",") {
		d = strings.TrimSpace(d)
		if d == "" {
			continue
		}
		name, rest, ok := strings.Cut(d, "=")
		if !ok || name == "" {
			return fmt.Errorf("faultinject: directive %q: want name=mode[:prob][@after][#max]", d)
		}
		spec, err := parseSpec(rest)
		if err != nil {
			return fmt.Errorf("faultinject: directive %q: %w", d, err)
		}
		r.Set(name, spec)
	}
	return nil
}

func parseSpec(s string) (Spec, error) {
	var spec Spec
	// Split off #max, then @after, then :prob, leaving the mode.
	if head, max, ok := strings.Cut(s, "#"); ok {
		v, err := strconv.ParseUint(max, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad #max: %v", err)
		}
		spec.Max = v
		s = head
	}
	if head, after, ok := strings.Cut(s, "@"); ok {
		v, err := strconv.ParseUint(after, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad @after: %v", err)
		}
		spec.After = v
		s = head
	}
	if head, prob, ok := strings.Cut(s, ":"); ok {
		v, err := strconv.ParseFloat(prob, 64)
		if err != nil || v < 0 || v > 1 {
			return spec, fmt.Errorf("bad :prob %q (want 0..1)", prob)
		}
		spec.Prob = v
		s = head
	}
	mode, err := parseMode(s)
	if err != nil {
		return spec, err
	}
	spec.Mode = mode
	return spec, nil
}

// String renders the armed points as a directive list (sorted by name),
// suitable for reproduction logs.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.pts))
	for name, p := range r.pts {
		if p.spec.Mode != Off {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		p := r.pts[name]
		d := name + "=" + p.spec.Mode.String()
		if p.spec.Prob > 0 && p.spec.Prob < 1 {
			d += ":" + strconv.FormatFloat(p.spec.Prob, 'g', -1, 64)
		}
		if p.spec.After > 0 {
			d += "@" + strconv.FormatUint(p.spec.After, 10)
		}
		if p.spec.Max > 0 {
			d += "#" + strconv.FormatUint(p.spec.Max, 10)
		}
		parts = append(parts, d)
	}
	return strings.Join(parts, ",")
}

func hashString(s string) uint64 {
	// FNV-1a, inlined to keep the package dependency-free.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// active is the process-default registry consulted by harness failpoints
// whose callers did not plumb an explicit registry. It is nil (all
// faults off) unless PRAM_FAULTS is set or a test/chaos run installs one
// via Swap.
var active atomic.Pointer[Registry]

func init() {
	if r := FromEnv(); r != nil {
		active.Store(r)
	}
}

// Active returns the process-default registry; nil means fault
// injection is off.
func Active() *Registry { return active.Load() }

// Swap installs r as the process-default registry and returns the
// previous one (tests restore it with a deferred Swap).
func Swap(r *Registry) *Registry { return active.Swap(r) }

// FromEnv builds a registry from the PRAM_FAULTS and PRAM_FAULT_SEED
// environment variables; it returns nil when PRAM_FAULTS is unset or
// empty, and a registry with an error-reporting no-op when malformed
// (misconfigured chaos must be loud, not silently off).
func FromEnv() *Registry {
	directives := os.Getenv("PRAM_FAULTS")
	if directives == "" {
		return nil
	}
	var seed int64 = 1
	if s := os.Getenv("PRAM_FAULT_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		} else {
			fmt.Fprintf(os.Stderr, "faultinject: bad PRAM_FAULT_SEED %q: %v (using 1)\n", s, err)
		}
	}
	r := New(seed)
	if err := r.Enable(directives); err != nil {
		fmt.Fprintf(os.Stderr, "faultinject: bad PRAM_FAULTS: %v (fault injection disabled)\n", err)
		return nil
	}
	return r
}

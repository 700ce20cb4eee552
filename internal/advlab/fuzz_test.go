package advlab

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pram"
	"repro/internal/writeall"
)

// FuzzParseStrategy holds the -lab-strategies decoder to its contract on
// arbitrary bytes, read both as one strategy (ParseStrategy) and as a
// list (ParseStrategies): no input panics, and every strategy either
// decoder accepts is a fixed point of encoding (its Canonical form parses
// back to the same bytes and Digest), compiles as Validate promises, and
// plays algorithm X at N = 64, P = 8 for up to 256 ticks without
// panicking, ending done or at the tick limit. The run goes through
// pram.New and Run directly: the tournament's safeRun would recover a
// panic. The committed corpus holds the canonical BuiltinStrategies(8),
// singly and as a list, and a few inputs the decoders refuse.
func FuzzParseStrategy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := ParseStrategy(data); err == nil {
			checkAcceptedStrategy(t, s)
		}
		if list, err := ParseStrategies(data); err == nil {
			for _, s := range list {
				checkAcceptedStrategy(t, s)
			}
		}
	})
}

func checkAcceptedStrategy(t *testing.T, s Strategy) {
	t.Helper()
	canon := s.Canonical()
	again, err := ParseStrategy(canon)
	if err != nil {
		t.Fatalf("canonical form %s does not parse: %v", canon, err)
	}
	if got := again.Canonical(); !bytes.Equal(got, canon) {
		t.Fatalf("canonical form is not a fixed point:\nfirst  %s\nsecond %s", canon, got)
	}
	if again.Digest() != s.Digest() {
		t.Fatalf("digest %s changed to %s through the canonical form %s", s.Digest(), again.Digest(), canon)
	}
	adv, err := s.Compile()
	if err != nil {
		t.Fatalf("validated strategy %s does not compile: %v", canon, err)
	}
	m, err := pram.New(pram.Config{N: 64, P: 8, MaxTicks: 256}, writeall.NewX(), adv)
	if err != nil {
		t.Fatalf("pram.New: %v", err)
	}
	if _, err := m.Run(); err != nil && !errors.Is(err, pram.ErrTickLimit) {
		t.Fatalf("X under %s: %v", canon, err)
	}
}

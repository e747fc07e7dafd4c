package rpc

import (
	"errors"
	"testing"

	"tinyevm/internal/protocol"
)

// TestErrorKindsExhaustive asserts that the wire-kind table covers the
// complete protocol sentinel taxonomy in both directions: every row of
// protocol.Sentinels maps to its own kind, and that kind rebuilds the
// identical sentinel. (protocol's own registry test fails first if a
// sentinel has no row at all.)
func TestErrorKindsExhaustive(t *testing.T) {
	for _, ek := range protocol.Sentinels {
		if kind := KindOf(ek.Err); kind != ek.Kind {
			t.Errorf("%v has wire kind %q, want %q", ek.Err, kind, ek.Kind)
			continue
		}
		back := sentinelOf(ek.Kind)
		if back == nil {
			t.Errorf("kind %q does not map back to a sentinel", ek.Kind)
			continue
		}
		if !errors.Is(back, ek.Err) || !errors.Is(ek.Err, back) {
			t.Errorf("kind %q round-trips %v to a different sentinel: %v", ek.Kind, ek.Err, back)
		}
	}
}

// TestErrorKindsStable pins table hygiene: kinds are unique (a kind
// that appeared twice would silently shadow one sentinel's rebuild)
// and non-empty, and wrapped errors match their sentinel's kind.
func TestErrorKindsStable(t *testing.T) {
	seen := make(map[string]error)
	for _, ek := range errorKinds {
		if ek.Kind == "" {
			t.Errorf("empty kind for %v", ek.Err)
		}
		if prev, dup := seen[ek.Kind]; dup {
			t.Errorf("kind %q mapped to both %v and %v", ek.Kind, prev, ek.Err)
		}
		seen[ek.Kind] = ek.Err
	}

	if got := KindOf(wrapExample(protocol.ErrStaleSequence)); got != "stale-sequence" {
		t.Errorf("wrapped sentinel kind = %q, want stale-sequence", got)
	}
}

func wrapExample(err error) error {
	return &protocol.ChannelError{Op: "pay", Channel: 7, Err: err}
}

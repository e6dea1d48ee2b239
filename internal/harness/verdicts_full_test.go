//go:build verdicts

package harness

import (
	"fmt"
	"testing"
)

// TestVerdictsFull asserts the verdicts over the full-size listing,
// ~15 s a seed:
//
//	go test -tags verdicts -run 'TestVerdictsFull/seed1729' ./internal/harness
func TestVerdictsFull(t *testing.T) {
	for _, seed := range []uint64{42, 1729} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkVerdicts(t, seed, false) })
	}
}

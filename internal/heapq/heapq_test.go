package heapq

import (
	"cmp"
	"slices"
	"testing"

	"nlarm/internal/rng"
)

type item struct{ key, seq int }

func cmpItem(a, b item) int {
	return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.seq, b.seq))
}

func itemLess(a, b item) bool { return cmpItem(a, b) < 0 }

// TestPopsInSortedOrder interleaves random pushes and pops of (key, seq)
// pairs with few distinct keys, so most comparisons are ties that seq
// breaks: the heap must pop exactly what a sort of the live set puts
// first, and, drained, the rest in slices.SortFunc order.
func TestPopsInSortedOrder(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := rng.New(seed)
		var h, live []item
		seq := 0
		for op := 0; op < 400; op++ {
			if len(h) > 0 && r.Intn(3) == 0 {
				var got item
				got, h = Pop(h, itemLess)
				slices.SortFunc(live, cmpItem)
				if got != live[0] {
					t.Fatalf("seed %d op %d: popped %+v, want %+v", seed, op, got, live[0])
				}
				live = live[1:]
				continue
			}
			x := item{key: r.Intn(4), seq: seq}
			seq++
			h = Push(h, x, itemLess)
			live = append(live, x)
		}
		slices.SortFunc(live, cmpItem)
		for i, want := range live {
			var got item
			got, h = Pop(h, itemLess)
			if got != want {
				t.Fatalf("seed %d drain %d: popped %+v, want %+v", seed, i, got, want)
			}
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: %d items left after draining", seed, len(h))
		}
	}
}

// TestPopReleasesPointer checks that a popped pointer is gone from the
// whole backing array, so the heap does not keep it reachable.
func TestPopReleasesPointer(t *testing.T) {
	less := func(a, b *item) bool { return itemLess(*a, *b) }
	var h []*item
	for i := 0; i < 9; i++ {
		h = Push(h, &item{key: i % 3, seq: i}, less)
	}
	for len(h) > 0 {
		var got *item
		got, h = Pop(h, less)
		if i := slices.Index(h[:cap(h)], got); i >= 0 {
			t.Fatalf("popped %+v still at index %d of the backing array", *got, i)
		}
	}
}

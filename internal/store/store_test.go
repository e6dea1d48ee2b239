package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nlarm/internal/obs"
)

// storeImpls returns both backends for shared conformance tests.
func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMem(),
		"file": fs,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Put("a/b", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get("a/b")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			_, err := st.Get("missing")
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestPutReplaces(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			_ = st.Put("k", []byte("v1"))
			_ = st.Put("k", []byte("v2"))
			got, _ := st.Get("k")
			if string(got) != "v2" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			_ = st.Put("nodestate/2", []byte("x"))
			_ = st.Put("nodestate/1", []byte("x"))
			_ = st.Put("latency/matrix", []byte("x"))
			keys, err := st.List("nodestate/")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 2 || keys[0] != "nodestate/1" || keys[1] != "nodestate/2" {
				t.Fatalf("List = %v", keys)
			}
			all, _ := st.List("")
			if len(all) != 3 {
				t.Fatalf("List all = %v", all)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			_ = st.Put("k", []byte("v"))
			if err := st.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatal("key survived delete")
			}
			// Deleting a missing key is fine.
			if err := st.Delete("k"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Put("", []byte("v")); err == nil {
				t.Fatal("empty key accepted")
			}
		})
	}
}

func TestValueIsolation(t *testing.T) {
	st := NewMem()
	buf := []byte("orig")
	_ = st.Put("k", buf)
	buf[0] = 'X'
	got, _ := st.Get("k")
	if string(got) != "orig" {
		t.Fatal("MemStore aliased caller's put buffer")
	}
	got[0] = 'Y'
	again, _ := st.Get("k")
	if string(again) != "orig" {
		t.Fatal("MemStore aliased returned buffer")
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	for name, st := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					key := fmt.Sprintf("worker/%d", w)
					for i := 0; i < 50; i++ {
						if err := st.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						_, _ = st.List("worker/")
						_, _ = st.Get("worker/0")
					}
				}()
			}
			wg.Wait()
			keys, _ := st.List("worker/")
			if len(keys) != 4 {
				t.Fatalf("keys after concurrent writes: %v", keys)
			}
		})
	}
}

func TestMemLen(t *testing.T) {
	st := NewMem()
	_ = st.Put("a", nil)
	_ = st.Put("b", nil)
	if len(st.m) != 2 {
		t.Fatalf("Len = %d", len(st.m))
	}
}

func TestFileStoreTraversalRejected(t *testing.T) {
	st, _ := NewFile(t.TempDir())
	for _, key := range []string{"../escape", "/abs/path", "a/../../b"} {
		if err := st.Put(key, []byte("x")); err == nil {
			t.Errorf("traversal key %q accepted", key)
		}
	}
}

func TestFileStoreSkipsTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewFile(dir)
	_ = st.Put("real", []byte("x"))
	// Simulate a leftover temp file from a crashed writer.
	if err := os.WriteFile(filepath.Join(dir, "ghost.tmp"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "real" {
		t.Fatalf("List = %v", keys)
	}
}

func TestFileStorePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	st1, _ := NewFile(dir)
	_ = st1.Put("nodestate/5", []byte("persisted"))
	st2, _ := NewFile(dir)
	got, err := st2.Get("nodestate/5")
	if err != nil || string(got) != "persisted" {
		t.Fatalf("reopen: %q %v", got, err)
	}
}

func TestFileStoreNestedKeys(t *testing.T) {
	st, _ := NewFile(t.TempDir())
	if err := st.Put("a/b/c/d", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("a/b/c/d")
	if err != nil || string(got) != "deep" {
		t.Fatalf("deep key: %q %v", got, err)
	}
}

// contractImpls returns every Store of the package, the wrappers over a
// MemStore: the implementations the Store contract binds.
func contractImpls(t *testing.T) map[string]Store {
	t.Helper()
	impls := storeImpls(t)
	impls["version"] = Version(NewMem())
	impls["instrument"] = Instrument(NewMem(), obs.NewRegistry(), nil)
	impls["fault"] = NewFault(NewMem(), 1)
	stale := NewFault(NewMem(), 1)
	stale.SetRates(Rates{StaleRead: 1}) // every Get of a rewritten key serves the previous value
	impls["fault-stale"] = stale
	return impls
}

// TestStoreContract pins the ownership rules on Store: Put does not keep
// value, so a writer may reuse one buffer for every put, and Get returns
// bytes the caller owns.
func TestStoreContract(t *testing.T) {
	for name, st := range contractImpls(t) {
		t.Run(name, func(t *testing.T) {
			buf := []byte("alpha")
			if err := st.Put("k", buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "bravo")
			if err := st.Put("k", buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "zzzzz")
			want := "bravo"
			if name == "fault-stale" {
				want = "alpha"
			}
			got, err := st.Get("k")
			if err != nil || string(got) != want {
				t.Fatalf("Get after the put buffer changed = %q, %v; want %q", got, err, want)
			}
			got[0] = 'Q'
			if again, err := st.Get("k"); err != nil || string(again) != want {
				t.Fatalf("Get after the returned bytes changed = %q, %v; want %q", again, err, want)
			}
		})
	}
}

// TestStoreSameKeyConcurrent has writers rewrite one key from buffers
// they reuse while readers read it: every read is one whole value, and
// under -race any access the store does not synchronise is reported.
func TestStoreSameKeyConcurrent(t *testing.T) {
	for name, st := range contractImpls(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var buf []byte
					for i := 0; i < 100; i++ {
						// Values of one repeated letter, of varying length.
						buf = append(buf[:0], bytes.Repeat([]byte{byte('a' + w)}, 1+(i*7+w)%13)...)
						if err := st.Put("same", buf); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						v, err := st.Get("same")
						if err != nil {
							continue // not written yet
						}
						if len(v) == 0 || len(bytes.Trim(v, string(v[:1]))) != 0 {
							t.Errorf("torn value %q", v)
							return
						}
						v[0] = '!'
					}
				}()
			}
			wg.Wait()
		})
	}
}

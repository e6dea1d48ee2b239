// Package store provides the shared state store that monitoring daemons
// publish into and the allocator reads from. The paper uses a shared NFS
// mount; this package offers the same contract with two backends: an
// in-memory store for simulations and tests, and a directory-backed store
// whose atomic file writes mirror the paper's NFS layout for the
// standalone daemons.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = fmt.Errorf("store: key not found")

// Store is a small key-value abstraction. Keys are slash-separated paths
// like "nodestate/csews3" or "bandwidth/3-17". Implementations must be
// safe for concurrent use: many daemons write while the allocator reads.
// Values are copied at the boundary in both directions, so writers can
// reuse one buffer for every put and readers can keep what they read.
type Store interface {
	// Put atomically replaces the value at key. It does not keep value
	// after it returns: the caller may overwrite it at once.
	Put(key string, value []byte) error
	// Get returns the value at key, or ErrNotFound. The caller owns the
	// returned bytes; changing them changes nothing in the store.
	Get(key string) ([]byte, error)
	// List returns all keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Delete removes key; deleting a missing key is not an error.
	Delete(key string) error
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Put implements Store. It copies value into the key's existing
// buffer, so rewriting a key with a value no longer than its largest
// allocates nothing.
func (s *MemStore) Put(key string, value []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	s.mu.Lock()
	s.m[key] = append(s.m[key][:0], value...)
	s.mu.Unlock()
	return nil
}

// Get implements Store. It copies under the read lock, because a later
// Put reuses the key's buffer.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	if ok {
		v = append([]byte(nil), v...)
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return v, nil
}

// List implements Store.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil
}

// FileStore persists keys as files under a root directory, one file per
// key, with atomic replace via rename — the way the paper's daemons write
// to NFS. Key path separators become subdirectories. Temp files carry a
// leading dot plus unique suffix, so a writer that crashes mid-write can
// never be confused with a published value: readers skip dot-files and
// the half-written temp is simply garbage next to the intact old value.
type FileStore struct {
	root string
}

// NewFile returns a file-backed store rooted at dir, creating it if
// needed.
func NewFile(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root: %w", err)
	}
	return &FileStore{root: dir}, nil
}

func (s *FileStore) path(key string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("store: empty key")
	}
	clean := filepath.Clean(key)
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("store: invalid key %q", key)
	}
	return filepath.Join(s.root, clean), nil
}

// Put implements Store with write-temp-then-rename atomicity. The temp
// file gets a unique name (so concurrent writers — even from different
// processes sharing the mount — never interleave into one file), is
// fsynced before the rename (so a crash cannot publish an empty or
// partial rename target), and is removed on any failure.
func (s *FileStore) Put(key string, value []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: mkdir for %q: %w", key, err)
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(p)+".tmp-")
	if err != nil {
		return fmt.Errorf("store: temp for %q: %w", key, err)
	}
	tmp := f.Name()
	fail := func(stage string, err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %s %q: %w", stage, key, err)
	}
	if _, err := f.Write(value); err != nil {
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close %q: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename %q: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %q: %w", key, err)
	}
	return b, nil
}

// List implements Store.
func (s *FileStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		base := filepath.Base(path)
		// Skip in-flight and abandoned temp files: current writers use
		// dot-prefixed unique names; older layouts used a ".tmp" suffix.
		if info.IsDir() || strings.HasPrefix(base, ".") || strings.HasSuffix(path, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

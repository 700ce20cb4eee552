package faultinject

import (
	"fmt"
	"os"
)

// File wraps an *os.File with injectable write, sync, and close faults
// under a scope ("snapshot", "ledger", ...). Points are resolved once
// at wrap time; an unarmed scope degenerates to nil-check passthrough.
//
// Points consulted, all optional:
//
//	<scope>.write  — Error, Torn (half the buffer lands, then an
//	                 error), or Corrupt (one bit flipped, success
//	                 reported)
//	<scope>.sync   — Error
type File struct {
	f     *os.File
	write *Point
	sync  *Point
}

// Create opens path for writing through the registry's <scope>.create
// failpoint and wraps the handle.
func Create(r *Registry, scope, path string) (*File, error) {
	if pt := r.Point(scope + ".create"); pt.Fire() {
		return nil, fmt.Errorf("create %s: %w", path, ErrInjected)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return Wrap(r, scope, f), nil
}

// OpenFile opens path with the given flags through the registry's
// <scope>.open failpoint and wraps the handle.
func OpenFile(r *Registry, scope, path string, flag int, perm os.FileMode) (*File, error) {
	if pt := r.Point(scope + ".open"); pt.Fire() {
		return nil, fmt.Errorf("open %s: %w", path, ErrInjected)
	}
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return Wrap(r, scope, f), nil
}

// Wrap wraps an already-open file with the scope's failpoints.
func Wrap(r *Registry, scope string, f *os.File) *File {
	return &File{
		f:     f,
		write: r.Point(scope + ".write"),
		sync:  r.Point(scope + ".sync"),
	}
}

// Write implements io.Writer with injectable torn writes, bit
// corruption, and outright errors.
func (f *File) Write(p []byte) (int, error) {
	if f.write.Fire() {
		switch f.write.Mode() {
		case Torn:
			// A crash mid-write: a prefix lands, the rest is lost.
			n, _ := f.f.Write(p[:len(p)/2])
			return n, fmt.Errorf("torn write after %d/%d bytes: %w", n, len(p), ErrInjected)
		case Corrupt:
			// Silent corruption: one deterministic bit flips, the write
			// "succeeds". Only checksums can catch this.
			if len(p) > 0 {
				q := make([]byte, len(p))
				copy(q, p)
				bit := mix(f.write.seed^f.write.Fires()) % uint64(len(q)*8)
				q[bit/8] ^= 1 << (bit % 8)
				return f.f.Write(q)
			}
			return f.f.Write(p)
		default:
			return 0, fmt.Errorf("write: %w", ErrInjected)
		}
	}
	return f.f.Write(p)
}

// Read passes through to the underlying file.
func (f *File) Read(p []byte) (int, error) { return f.f.Read(p) }

// Sync flushes to stable storage, with injectable fsync failure.
func (f *File) Sync() error {
	if f.sync.Fire() {
		return fmt.Errorf("sync: %w", ErrInjected)
	}
	return f.f.Sync()
}

// Seek passes through to the underlying file.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

// Truncate passes through to the underlying file.
func (f *File) Truncate(size int64) error { return f.f.Truncate(size) }

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }

// Name returns the underlying file's name.
func (f *File) Name() string { return f.f.Name() }

// Rename renames old to new through the registry's <scope>.rename
// failpoint; an injected failure leaves both paths untouched, like a
// crash immediately before the rename syscall.
func Rename(r *Registry, scope, oldpath, newpath string) error {
	if pt := r.Point(scope + ".rename"); pt.Fire() {
		return fmt.Errorf("rename %s -> %s: %w", oldpath, newpath, ErrInjected)
	}
	return os.Rename(oldpath, newpath)
}

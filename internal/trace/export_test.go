package trace

import "io"

// SetSource replaces what a File from Open reads its chunks through and
// returns what it replaced, so a test can make reads fail mid-replay.
func SetSource(f *File, src io.ReaderAt) io.ReaderAt {
	old := f.src
	f.src = src
	return old
}

// SetSharedOpened installs fn to see each File OpenShared opens before it
// verifies it, and returns a func that removes it.
func SetSharedOpened(fn func(*File)) (restore func()) {
	sharedOpened = fn
	return func() { sharedOpened = nil }
}

// Path returns the path a File from Open was opened at.
func (f *File) Path() string { return f.path }

package trace

import "io"

// SetSource replaces what a File from Open reads its chunks through and
// returns what it replaced, so a test can make reads fail mid-replay.
func SetSource(f *File, src io.ReaderAt) io.ReaderAt {
	old := f.src
	f.src = src
	return old
}

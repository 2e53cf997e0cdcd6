// Stream endpoints: the Reader the tier drains and the Writer it fills,
// plus slice and channel adapters so callers with in-memory data or
// producer goroutines plug in without ceremony.

package extsort

import "io"

// Reader is the key-stream source, with io.Reader semantics over keys:
// Read fills a prefix of dst, returns how many keys it wrote, and
// reports the end of the stream with io.EOF (either alongside the final
// keys or on the next call).
type Reader interface {
	Read(dst []Key) (int, error)
}

// Writer is the sorted-output sink. Write consumes one block of keys in
// nondecreasing order; blocks arrive in stream order, so concatenating
// them reproduces the fully sorted sequence. The slice is reused
// between calls — implementations must copy what they keep.
type Writer interface {
	Write(keys []Key) error
}

// errEOF is the sentinel readRun reports a clean end of stream with.
var errEOF = io.EOF

// readRun fills the run buffer buf from src. It returns the keys read,
// a prefix of buf (possibly empty at the end of the stream), and io.EOF
// once the source is exhausted.
func readRun(src Reader, buf []Key) ([]Key, error) {
	run := buf
	fill := 0
	for fill < len(run) {
		n, err := src.Read(run[fill:])
		if n < 0 || n > len(run)-fill {
			return run[:fill], &ConfigError{Field: "Reader", Reason: "Read returned an out-of-range count"}
		}
		fill += n
		if err != nil {
			return run[:fill], err
		}
	}
	return run, nil
}

// SliceReader streams an in-memory slice. The slice is only read.
type SliceReader struct {
	keys []Key
}

// NewSliceReader returns a Reader over keys.
func NewSliceReader(keys []Key) *SliceReader { return &SliceReader{keys: keys} }

// Read implements Reader.
func (r *SliceReader) Read(dst []Key) (int, error) {
	if len(r.keys) == 0 {
		return 0, io.EOF
	}
	n := copy(dst, r.keys)
	r.keys = r.keys[n:]
	if len(r.keys) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// SliceWriter accumulates the sorted output in memory.
type SliceWriter struct {
	keys []Key
}

// NewSliceWriter returns an empty in-memory sink.
func NewSliceWriter() *SliceWriter { return &SliceWriter{} }

// Write implements Writer.
func (w *SliceWriter) Write(keys []Key) error {
	w.keys = append(w.keys, keys...)
	return nil
}

// Keys returns everything written so far, in order.
func (w *SliceWriter) Keys() []Key { return w.keys }

// FuncReader adapts a pull function to Reader — handy for generated
// streams of known or unbounded length.
type FuncReader func(dst []Key) (int, error)

// Read implements Reader.
func (f FuncReader) Read(dst []Key) (int, error) { return f(dst) }

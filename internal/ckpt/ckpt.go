// Package ckpt is the checkpoint wire format: a versioned, deterministic
// binary serialization of machine + scheduler state. A blob is a small
// header (format version, config content address, cycle position) followed
// by a *state section* — named, length-prefixed component sections written
// in a fixed order with every map sorted, so two machines in identical
// logical states always produce identical bytes.
//
// The state section is both the serialization and the oracle: restore
// rebuilds a machine from the same config + workload, replays
// deterministically to the checkpoint cycle, re-serializes, and
// byte-compares against the blob (CompareState). A mismatch is reported as
// ErrDivergence naming the first differing section; malformed input is
// ErrFormat, a version skew ErrVersion, a config skew ErrConfigMismatch.
// Decoding never panics on arbitrary bytes — every read is bounds-checked.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the blob format version this package reads and writes.
const Version = 2

// magic brands checkpoint blobs; the trailing byte is the header layout
// revision (independent of Version, which covers the state encoding).
var magic = [8]byte{'T', 'S', 'O', 'P', 'C', 'K', 'P', '1'}

// Typed failure classes. Restore paths wrap these with %w so callers can
// errors.Is them; none of them is ever a panic.
var (
	// ErrFormat marks a blob that is not a checkpoint: bad magic,
	// truncation, or corrupt internal structure.
	ErrFormat = errors.New("ckpt: malformed checkpoint blob")
	// ErrVersion marks a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
	// ErrConfigMismatch marks a restore into a machine whose canonical
	// config hash differs from the checkpoint's.
	ErrConfigMismatch = errors.New("ckpt: checkpoint config does not match machine config")
	// ErrDivergence marks a restore under a workload other than the
	// checkpointed one, or a replayed machine whose re-serialized state is
	// not byte-identical to the checkpoint — nondeterminism or a corrupted
	// state section.
	ErrDivergence = errors.New("ckpt: replayed state diverges from checkpoint")
)

// Header is the blob's self-description. Cycle/Seq/Executed position the
// engine; ConfigHash and WorkloadDigest bind the blob to one configuration
// and one workload, both checked before a restore replays anything; the
// state byte-compare then proves the replay reached the recorded state.
type Header struct {
	Version        uint32
	ConfigHash     string
	Scheduler      uint8
	Phase          uint8
	Cycle          uint64
	Seq            uint64
	Executed       uint64
	WorkloadDigest string
}

// Writer builds the deterministic state section: named sections of
// primitive writes. All integers are little-endian fixed width; strings and
// byte slices are u32-length-prefixed.
type Writer struct {
	names []string
	datas [][]byte
	cur   []byte
}

// Section closes the current section (if any) and starts a new one.
func (w *Writer) Section(name string) {
	w.flush()
	w.names = append(w.names, name)
}

func (w *Writer) flush() {
	if len(w.names) > len(w.datas) {
		w.datas = append(w.datas, w.cur)
		w.cur = nil
	}
}

func (w *Writer) U8(v uint8)   { w.cur = append(w.cur, v) }
func (w *Writer) U32(v uint32) { w.cur = binary.LittleEndian.AppendUint32(w.cur, v) }
func (w *Writer) U64(v uint64) { w.cur = binary.LittleEndian.AppendUint64(w.cur, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) Int(v int)    { w.I64(int64(v)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.cur = append(w.cur, s...)
}

// State serializes the accumulated sections.
func (w *Writer) State() []byte {
	w.flush()
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.names)))
	for i, name := range w.names {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(w.datas[i])))
		out = append(out, w.datas[i]...)
	}
	return out
}

// reader is a bounds-checked cursor over a blob.
type reader struct {
	buf []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) || r.off+n < r.off {
		return nil, fmt.Errorf("%w: truncated at offset %d (need %d of %d bytes)",
			ErrFormat, r.off, n, len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(r.buf)-r.off {
		return "", fmt.Errorf("%w: string length %d exceeds remaining %d bytes",
			ErrFormat, n, len(r.buf)-r.off)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// EncodeBlob assembles the full checkpoint: magic, header, state section.
func EncodeBlob(h Header, state []byte) []byte {
	var out []byte
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, h.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(h.ConfigHash)))
	out = append(out, h.ConfigHash...)
	out = append(out, h.Scheduler, h.Phase)
	out = binary.LittleEndian.AppendUint64(out, h.Cycle)
	out = binary.LittleEndian.AppendUint64(out, h.Seq)
	out = binary.LittleEndian.AppendUint64(out, h.Executed)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(h.WorkloadDigest)))
	out = append(out, h.WorkloadDigest...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(state)))
	out = append(out, state...)
	return out
}

// DecodeBlob validates the envelope and returns the header and raw state
// section. All failures are ErrFormat or ErrVersion; it never panics.
func DecodeBlob(blob []byte) (Header, []byte, error) {
	r := &reader{buf: blob}
	var h Header
	mg, err := r.take(len(magic))
	if err != nil {
		return h, nil, err
	}
	if string(mg) != string(magic[:]) {
		return h, nil, fmt.Errorf("%w: bad magic %q", ErrFormat, mg)
	}
	if h.Version, err = r.u32(); err != nil {
		return h, nil, err
	}
	if h.Version != Version {
		return h, nil, fmt.Errorf("%w: blob version %d, this build reads %d",
			ErrVersion, h.Version, Version)
	}
	if h.ConfigHash, err = r.str(); err != nil {
		return h, nil, err
	}
	if h.Scheduler, err = r.u8(); err != nil {
		return h, nil, err
	}
	if h.Phase, err = r.u8(); err != nil {
		return h, nil, err
	}
	if h.Cycle, err = r.u64(); err != nil {
		return h, nil, err
	}
	if h.Seq, err = r.u64(); err != nil {
		return h, nil, err
	}
	if h.Executed, err = r.u64(); err != nil {
		return h, nil, err
	}
	if h.WorkloadDigest, err = r.str(); err != nil {
		return h, nil, err
	}
	n, err := r.u64()
	if err != nil {
		return h, nil, err
	}
	if n != uint64(len(blob)-r.off) {
		return h, nil, fmt.Errorf("%w: state section claims %d bytes, %d remain",
			ErrFormat, n, len(blob)-r.off)
	}
	state, err := r.take(int(n))
	if err != nil {
		return h, nil, err
	}
	return h, state, nil
}

// sections parses a state section into its named parts.
func sections(state []byte) ([]string, [][]byte, error) {
	r := &reader{buf: state}
	n, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var datas [][]byte
	for i := uint32(0); i < n; i++ {
		name, err := r.str()
		if err != nil {
			return nil, nil, err
		}
		size, err := r.u64()
		if err != nil {
			return nil, nil, err
		}
		if size > uint64(len(state)-r.off) {
			return nil, nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain",
				ErrFormat, name, size, len(state)-r.off)
		}
		data, err := r.take(int(size))
		if err != nil {
			return nil, nil, err
		}
		names = append(names, name)
		datas = append(datas, data)
	}
	if r.off != len(state) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after last section",
			ErrFormat, len(state)-r.off)
	}
	return names, datas, nil
}

// CompareState byte-compares a checkpoint's state section (want) against a
// replayed machine's (got), reporting the first divergent section by name.
// want is untrusted input and may be malformed (ErrFormat); got is locally
// produced and assumed well-formed.
func CompareState(want, got []byte) error {
	if string(want) == string(got) {
		return nil
	}
	wn, wd, err := sections(want)
	if err != nil {
		return err
	}
	gn, gd, err := sections(got)
	if err != nil {
		return err
	}
	for i := range wn {
		if i >= len(gn) {
			break
		}
		if wn[i] != gn[i] {
			return fmt.Errorf("%w: section %d is %q in checkpoint, %q in replay",
				ErrDivergence, i, wn[i], gn[i])
		}
		if string(wd[i]) != string(gd[i]) {
			return fmt.Errorf("%w: section %q differs (%d vs %d bytes)",
				ErrDivergence, wn[i], len(wd[i]), len(gd[i]))
		}
	}
	return fmt.Errorf("%w: section count %d vs %d", ErrDivergence, len(wn), len(gn))
}

package pram

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/faultinject"
)

// Snapshot stream format (all integers little-endian):
//
//	magic   [8]byte  "PRAMSNAP"
//	version uint32   SnapshotVersion
//	length  uint64   payload byte count
//	payload [length]byte
//	crc     uint32   CRC-32C (Castagnoli) of the payload
//
// The payload encodes the Snapshot fields in declaration order, with a
// write-policy slot after N and P that always holds commonPolicy (it
// dates from machines with several policies; ReadSnapshot refuses any
// other value); strings and slices are length-prefixed. The checksum
// makes a torn or corrupted checkpoint file detectable instead of
// silently resuming garbage.
//
// Version history:
//
//	1: initial format (Mem always the full materialized memory)
//	2: appends PackedLen (i64) and PackedBits (length-prefixed u64s) so
//	   packed memories checkpoint in representation form. Version-1
//	   streams still load (as PackedLen == 0).

// SnapshotVersion is the current snapshot serialization format version.
const SnapshotVersion = 2

// minSnapshotVersion is the oldest stream version ReadSnapshot accepts.
const minSnapshotVersion = 1

// commonPolicy is the code of the COMMON CRCW machine in a stream's
// policy slot, the only value ReadSnapshot accepts there.
const commonPolicy = 1

// ErrSnapshotFormat reports a corrupt, truncated, or unsupported
// snapshot stream. The two sentinels below wrap it, so callers can keep
// matching the umbrella error or distinguish the failure class.
var ErrSnapshotFormat = errors.New("pram: invalid snapshot data")

var (
	// ErrSnapshotCorrupt reports a truncated, checksum-failing, or
	// undecodable snapshot — a torn or damaged file. Callers should fall
	// back to the previous checkpoint (see LoadSnapshotFallback).
	ErrSnapshotCorrupt = fmt.Errorf("%w: corrupt or truncated", ErrSnapshotFormat)
	// ErrSnapshotVersion reports a magic, version or write-policy
	// mismatch — a file that is not a snapshot this build can read at
	// all.
	ErrSnapshotVersion = fmt.Errorf("%w: unsupported format", ErrSnapshotFormat)
)

var (
	snapshotMagic = [8]byte{'P', 'R', 'A', 'M', 'S', 'N', 'A', 'P'}
	snapshotCRC   = crc32.MakeTable(crc32.Castagnoli)
)

// WriteSnapshot serializes s to w in the versioned binary format.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	var payload bytes.Buffer
	e := snapEncoder{w: &payload}
	e.i64(int64(s.N))
	e.i64(int64(s.P))
	e.i64(commonPolicy)
	e.str(s.Algorithm)
	e.str(s.Adversary)
	e.i64(int64(s.Tick))
	e.metrics(s.Metrics)
	e.words(s.Mem)
	e.u64(uint64(len(s.States)))
	for _, st := range s.States {
		e.i64(int64(st))
	}
	e.words(s.Stables)
	e.u64(uint64(len(s.Procs)))
	for _, ps := range s.Procs {
		e.words(ps)
	}
	e.words(s.AlgState)
	e.words(s.AdvState)
	e.i64(int64(s.PackedLen))
	e.u64s(s.PackedBits)
	if e.err != nil {
		return e.err
	}

	var header [20]byte
	copy(header[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[8:12], SnapshotVersion)
	binary.LittleEndian.PutUint64(header[12:20], uint64(payload.Len()))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), snapshotCRC))
	_, err := w.Write(crc[:])
	return err
}

// ReadSnapshot parses a snapshot written by WriteSnapshot, verifying the
// magic, version, and checksum.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var header [20]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrSnapshotCorrupt, err)
	}
	if !bytes.Equal(header[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotVersion, header[:8])
	}
	version := binary.LittleEndian.Uint32(header[8:12])
	if version < minSnapshotVersion || version > SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (have %d)", ErrSnapshotVersion, version, SnapshotVersion)
	}
	length := binary.LittleEndian.Uint64(header[12:20])
	if length > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrSnapshotCorrupt, length)
	}
	payload, err := readExact(r, length)
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrSnapshotCorrupt, err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrSnapshotCorrupt, err)
	}
	if got, want := crc32.Checksum(payload, snapshotCRC), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %#x, want %#x)", ErrSnapshotCorrupt, got, want)
	}

	d := snapDecoder{buf: payload}
	s := &Snapshot{}
	s.N = int(d.i64())
	s.P = int(d.i64())
	policy := d.i64()
	s.Algorithm = d.str()
	s.Adversary = d.str()
	s.Tick = int(d.i64())
	s.Metrics = d.metrics()
	s.Mem = d.words()
	nStates := d.count()
	if d.err == nil {
		s.States = make([]ProcState, nStates)
		for i := range s.States {
			s.States[i] = ProcState(d.i64())
		}
	}
	s.Stables = d.words()
	nProcs := d.count()
	if d.err == nil {
		s.Procs = make([][]Word, nProcs)
		for i := range s.Procs {
			s.Procs[i] = d.words()
		}
	}
	s.AlgState = d.words()
	s.AdvState = d.words()
	if version >= 2 {
		s.PackedLen = int(d.i64())
		s.PackedBits = d.u64s()
		if d.err == nil && !validPackedPrefix(s.PackedLen, s.PackedBits) {
			return nil, fmt.Errorf("%w: packed prefix %d cells with %d bit words or a bit past its end",
				ErrSnapshotCorrupt, s.PackedLen, len(s.PackedBits))
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if policy != commonPolicy {
		return nil, fmt.Errorf("%w: write policy %d (only COMMON, %d, is supported)",
			ErrSnapshotVersion, policy, commonPolicy)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrSnapshotCorrupt, len(d.buf))
	}
	return s, nil
}

// readExact reads exactly n bytes, growing the buffer in bounded chunks
// so a corrupt length field costs only as much memory as the stream
// actually holds, not what the header claims.
func readExact(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		step := n - uint64(len(buf))
		if step > chunk {
			step = chunk
		}
		old := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// SaveSnapshot writes s to path crash-consistently: the snapshot is
// written to a temporary file in the same directory, synced, and then
// renamed over path, so a crash mid-checkpoint leaves the previous
// checkpoint intact rather than a torn file. Every file operation goes
// through the process-default fault-injection registry under the
// "snapshot" scope (snapshot.create/.write/.sync/.rename), which is how
// the crash-consistency claim is actually exercised in tests.
func SaveSnapshot(path string, s *Snapshot) error {
	reg := faultinject.Active()
	tmp := path + ".tmp"
	f, err := faultinject.Create(reg, "snapshot", tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteSnapshot(bw, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return faultinject.Rename(reg, "snapshot", tmp, path)
}

// PrevSnapshotSuffix is appended to a checkpoint path to name the
// previous-generation checkpoint kept by SaveSnapshotRotate.
const PrevSnapshotSuffix = ".prev"

// SaveSnapshotRotate saves like SaveSnapshot, but first rotates any
// existing checkpoint at path to path+PrevSnapshotSuffix. Together with
// LoadSnapshotFallback this gives checkpointing one level of history: if
// the newest checkpoint is lost to a torn write or corruption, the
// previous one still resumes the run (further back in time, never
// wrong).
func SaveSnapshotRotate(path string, s *Snapshot) error {
	reg := faultinject.Active()
	if _, err := os.Stat(path); err == nil {
		if err := faultinject.Rename(reg, "snapshot", path, path+PrevSnapshotSuffix); err != nil {
			return fmt.Errorf("pram: rotate checkpoint: %w", err)
		}
	}
	return SaveSnapshot(path, s)
}

// LoadSnapshot reads a snapshot saved by SaveSnapshot.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(bufio.NewReader(f))
}

// LoadSnapshotFallback loads the checkpoint at path, falling back to
// path+PrevSnapshotSuffix when the primary is missing, truncated, or
// corrupt. It returns the snapshot together with the path it actually
// loaded, so callers can log the degradation; the error reports both
// failures when neither generation is usable.
func LoadSnapshotFallback(path string) (*Snapshot, string, error) {
	snap, err := LoadSnapshot(path)
	if err == nil {
		return snap, path, nil
	}
	prev := path + PrevSnapshotSuffix
	snapPrev, errPrev := LoadSnapshot(prev)
	if errPrev != nil {
		return nil, "", fmt.Errorf("pram: load checkpoint %s: %w (fallback %s: %v)", path, err, prev, errPrev)
	}
	return snapPrev, prev, nil
}

// snapEncoder accumulates little-endian primitives, capturing the first
// write error.
type snapEncoder struct {
	w   io.Writer
	err error
}

func (e *snapEncoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, e.err = e.w.Write(b[:])
}

func (e *snapEncoder) i64(v int64) { e.u64(uint64(v)) }

func (e *snapEncoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *snapEncoder) words(ws []Word) {
	e.u64(uint64(len(ws)))
	for _, w := range ws {
		e.i64(int64(w))
	}
}

func (e *snapEncoder) u64s(ws []uint64) {
	e.u64(uint64(len(ws)))
	for _, w := range ws {
		e.u64(w)
	}
}

func (e *snapEncoder) metrics(m Metrics) {
	e.i64(int64(m.N))
	e.i64(int64(m.P))
	e.i64(int64(m.Ticks))
	e.i64(m.Completed)
	e.i64(m.Incomplete)
	e.i64(m.Failures)
	e.i64(m.Restarts)
	e.i64(m.Vetoes)
	e.i64(int64(m.MaxReads))
	e.i64(int64(m.MaxWrites))
	e.i64(m.Snapshots)
}

// snapDecoder consumes the payload buffer, capturing the first error;
// later reads become no-ops returning zero values.
type snapDecoder struct {
	buf []byte
	err error
}

func (d *snapDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("%w: truncated payload", ErrSnapshotCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[:8])
	d.buf = d.buf[8:]
	return v
}

func (d *snapDecoder) i64() int64 { return int64(d.u64()) }

// count reads a slice length, bounding it by the bytes that remain so a
// corrupt length cannot trigger a huge allocation.
func (d *snapDecoder) count() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: length %d exceeds remaining payload", ErrSnapshotCorrupt, n)
		return 0
	}
	return int(n)
}

func (d *snapDecoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *snapDecoder) words() []Word {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n*8 > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: %d words exceed remaining payload", ErrSnapshotCorrupt, n)
		return nil
	}
	if n == 0 {
		return nil
	}
	ws := make([]Word, n)
	for i := range ws {
		ws[i] = Word(binary.LittleEndian.Uint64(d.buf[i*8 : i*8+8]))
	}
	d.buf = d.buf[n*8:]
	return ws
}

func (d *snapDecoder) u64s() []uint64 {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n*8 > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: %d words exceed remaining payload", ErrSnapshotCorrupt, n)
		return nil
	}
	if n == 0 {
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(d.buf[i*8 : i*8+8])
	}
	d.buf = d.buf[n*8:]
	return ws
}

func (d *snapDecoder) metrics() Metrics {
	return Metrics{
		N:          int(d.i64()),
		P:          int(d.i64()),
		Ticks:      int(d.i64()),
		Completed:  d.i64(),
		Incomplete: d.i64(),
		Failures:   d.i64(),
		Restarts:   d.i64(),
		Vetoes:     d.i64(),
		MaxReads:   int(d.i64()),
		MaxWrites:  int(d.i64()),
		Snapshots:  d.i64(),
	}
}

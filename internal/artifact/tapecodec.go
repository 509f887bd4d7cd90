package artifact

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/parallel-frontend/pfe/internal/program"
)

// The framed on-disk tape format (version 1). A tape file is three sections
// — the packed taken bits, the varint aux stream, and the seek index — each
// cut into fixed-size blocks that are individually flate-compressed when
// that actually shrinks them and stored raw otherwise. The block table
// (lengths + per-block CRC32) is never compressed, so locating any block is
// O(1) arithmetic over the table, and the seek-index section is forced raw,
// so Reader.Seek on a decoded tape keeps its O(1) block jump without
// inflating anything first.
//
// Layout, all little-endian:
//
//	magic "PFET" | u32 version | u64 startPC | u64 count | u8 halted
//	u32 blockSize | u32 nblocks per section (taken, aux, index)
//	block table: per block u8 enc (0 raw, 1 flate) | u32 rawLen | u32 storedLen | u32 crc32(stored)
//	payload: stored block bytes, back to back, in table order
//
// Because payloads are laid out back to back, a section whose blocks are all
// raw occupies one contiguous byte range of the file: DecodeTape references
// it as a subslice of the input — the zero-copy path a Store mmap hit rides
// — instead of copying it onto the heap. Sections with any compressed block
// are inflated into a fresh contiguous buffer.
const (
	tapeMagic     = "PFET"
	tapeVersion   = 1
	tapeBlockSize = 64 << 10

	seekPointBytes = 32 // u64 pc | u64 bitPos | u64 auxOff (as u64) | u64 prevEA
	tapeNumSecs    = 3  // taken, aux, index
)

// tapeBlock is one block-table record.
type tapeBlock struct {
	enc       byte // 0 raw, 1 flate
	rawLen    uint32
	storedLen uint32
	crc       uint32
}

// EncodeTape serializes t into the framed block-compressed format. The
// encoding is self-contained except for the program image, which is stored
// separately under its own content address (DecodeTape takes it back).
func EncodeTape(t *Tape) []byte {
	idx := make([]byte, len(t.index)*seekPointBytes)
	for i, sp := range t.index {
		o := i * seekPointBytes
		binary.LittleEndian.PutUint64(idx[o:], sp.pc)
		binary.LittleEndian.PutUint64(idx[o+8:], sp.bitPos)
		binary.LittleEndian.PutUint64(idx[o+16:], uint64(sp.auxOff))
		binary.LittleEndian.PutUint64(idx[o+24:], sp.prevEA)
	}
	secs := [tapeNumSecs][]byte{t.taken, t.aux, idx}
	// The index section stays raw so seeks never pay an inflate.
	compressible := [tapeNumSecs]bool{true, true, false}

	// Cut every section into blocks, compress the compressible ones in
	// parallel, then lay the blocks out in order: the bytes are the same
	// as a serial encoder's.
	type block struct {
		sec    int
		raw    []byte
		stored []byte
	}
	var blocks []block
	for s, sec := range secs {
		for off := 0; off < len(sec) || (off == 0 && len(sec) == 0); off += tapeBlockSize {
			blocks = append(blocks, block{sec: s, raw: sec[off:min(off+tapeBlockSize, len(sec))]})
			if len(sec) == 0 {
				break // empty section still gets one empty block
			}
		}
	}
	var next atomic.Int64
	compress := func() {
		var w *flate.Writer
		for {
			i := int(next.Add(1)) - 1
			if i >= len(blocks) {
				return
			}
			b := &blocks[i]
			b.stored = b.raw
			if !compressible[b.sec] || len(b.raw) == 0 {
				continue
			}
			if w == nil {
				w, _ = flate.NewWriter(nil, flate.BestSpeed) // fails only on a bad level
			}
			if z := deflate(w, b.raw); z != nil && len(z) < len(b.raw) {
				b.stored = z
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(blocks)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			compress()
		}()
	}
	compress()
	wg.Wait()

	var tables [tapeNumSecs][]tapeBlock
	var payload bytes.Buffer
	for _, b := range blocks {
		tb := tapeBlock{rawLen: uint32(len(b.raw)), storedLen: uint32(len(b.stored)), crc: crc32.ChecksumIEEE(b.stored)}
		if len(b.stored) != len(b.raw) {
			tb.enc = 1
		}
		tables[b.sec] = append(tables[b.sec], tb)
		payload.Write(b.stored)
	}

	var out bytes.Buffer
	out.WriteString(tapeMagic)
	le32(&out, tapeVersion)
	le64(&out, t.startPC)
	le64(&out, t.count)
	if t.halted {
		out.WriteByte(1)
	} else {
		out.WriteByte(0)
	}
	le32(&out, tapeBlockSize)
	for s := range tables {
		le32(&out, uint32(len(tables[s])))
	}
	for s := range tables {
		for _, b := range tables[s] {
			out.WriteByte(b.enc)
			le32(&out, b.rawLen)
			le32(&out, b.storedLen)
			le32(&out, b.crc)
		}
	}
	out.Write(payload.Bytes())
	return out.Bytes()
}

func le32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func le64(w *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// deflate compresses b through w, reset for it. Tapes use the
// speed-biased level: they are written once and read many times, but puts
// sit on the first run's critical path. It returns nil if compression
// fails.
func deflate(w *flate.Writer, b []byte) []byte {
	var z bytes.Buffer
	w.Reset(&z)
	if _, err := w.Write(b); err != nil {
		return nil
	}
	if err := w.Close(); err != nil {
		return nil
	}
	return z.Bytes()
}

// DecodeTape reconstructs a Tape from its framed encoding and the program
// image it was recorded from. Every block's CRC is verified before any byte
// is trusted; any framing, checksum, or consistency failure returns an error
// and never a partially decoded tape. Sections stored raw are referenced as
// subslices of data (zero-copy — the caller must keep data alive, e.g. an
// mmap'd store entry, for the life of the tape); compressed sections are
// inflated into fresh buffers.
func DecodeTape(data []byte, prog *program.Program) (*Tape, error) {
	const headerLen = 4 + 4 + 8 + 8 + 1 + 4 + 4*tapeNumSecs
	if len(data) < headerLen {
		return nil, fmt.Errorf("artifact: tape frame truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != tapeMagic {
		return nil, fmt.Errorf("artifact: bad tape magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != tapeVersion {
		return nil, fmt.Errorf("artifact: tape format version %d, want %d", v, tapeVersion)
	}
	startPC := binary.LittleEndian.Uint64(data[8:])
	count := binary.LittleEndian.Uint64(data[16:])
	halted := data[24] != 0
	if bs := binary.LittleEndian.Uint32(data[25:]); bs == 0 || bs > 1<<30 {
		return nil, fmt.Errorf("artifact: tape block size %d out of range", bs)
	}
	var nblocks [tapeNumSecs]int
	total := 0
	for s := 0; s < tapeNumSecs; s++ {
		n := binary.LittleEndian.Uint32(data[29+4*s:])
		if n > uint32(len(data)) { // cheap bound before we size the table
			return nil, fmt.Errorf("artifact: tape section %d claims %d blocks", s, n)
		}
		nblocks[s] = int(n)
		total += int(n)
	}
	tableOff := headerLen
	tableLen := total * 13
	if len(data) < tableOff+tableLen {
		return nil, fmt.Errorf("artifact: tape block table truncated")
	}
	payload := data[tableOff+tableLen:]

	// Walk the table once: verify every stored block's CRC and remember each
	// section's extent so raw sections can be referenced in place.
	type secPlan struct {
		blocks  []tapeBlock
		start   int // payload offset of first block
		rawLen  int
		allRaw  bool
		present bool
	}
	var plans [tapeNumSecs]secPlan
	rec := tableOff
	off := 0
	for s := 0; s < tapeNumSecs; s++ {
		p := secPlan{start: off, allRaw: true, present: true}
		for i := 0; i < nblocks[s]; i++ {
			b := tapeBlock{
				enc:       data[rec],
				rawLen:    binary.LittleEndian.Uint32(data[rec+1:]),
				storedLen: binary.LittleEndian.Uint32(data[rec+5:]),
				crc:       binary.LittleEndian.Uint32(data[rec+9:]),
			}
			rec += 13
			if b.enc > 1 {
				return nil, fmt.Errorf("artifact: tape block encoding %d unknown", b.enc)
			}
			if off+int(b.storedLen) > len(payload) {
				return nil, fmt.Errorf("artifact: tape payload truncated at block %d/%d", s, i)
			}
			stored := payload[off : off+int(b.storedLen)]
			if crc32.ChecksumIEEE(stored) != b.crc {
				return nil, fmt.Errorf("artifact: tape block %d/%d checksum mismatch", s, i)
			}
			if b.enc == 1 {
				p.allRaw = false
			} else if b.rawLen != b.storedLen {
				return nil, fmt.Errorf("artifact: raw tape block %d/%d length mismatch", s, i)
			}
			p.rawLen += int(b.rawLen)
			off += int(b.storedLen)
			p.blocks = append(p.blocks, b)
		}
		plans[s] = p
	}
	if off != len(payload) {
		return nil, fmt.Errorf("artifact: tape payload has %d trailing bytes", len(payload)-off)
	}

	assemble := func(p secPlan) ([]byte, error) {
		if p.allRaw {
			return payload[p.start : p.start+p.rawLen], nil
		}
		out := make([]byte, 0, p.rawLen)
		o := p.start
		for i, b := range p.blocks {
			stored := payload[o : o+int(b.storedLen)]
			o += int(b.storedLen)
			if b.enc == 0 {
				out = append(out, stored...)
				continue
			}
			r := flate.NewReader(bytes.NewReader(stored))
			raw, err := io.ReadAll(io.LimitReader(r, int64(b.rawLen)+1))
			r.Close()
			if err != nil {
				return nil, fmt.Errorf("artifact: inflating tape block %d: %w", i, err)
			}
			if len(raw) != int(b.rawLen) {
				return nil, fmt.Errorf("artifact: tape block %d inflated to %d bytes, want %d", i, len(raw), b.rawLen)
			}
			out = append(out, raw...)
		}
		return out, nil
	}

	taken, err := assemble(plans[0])
	if err != nil {
		return nil, err
	}
	aux, err := assemble(plans[1])
	if err != nil {
		return nil, err
	}
	idxBytes, err := assemble(plans[2])
	if err != nil {
		return nil, err
	}
	if len(idxBytes)%seekPointBytes != 0 {
		return nil, fmt.Errorf("artifact: tape index length %d not a whole number of points", len(idxBytes))
	}
	wantPoints := 0
	if count > 0 {
		wantPoints = int((count + IndexStride - 1) / IndexStride)
	}
	if got := len(idxBytes) / seekPointBytes; got != wantPoints {
		return nil, fmt.Errorf("artifact: tape index has %d points, want %d for %d instructions", got, wantPoints, count)
	}
	index := make([]seekPoint, wantPoints)
	for i := range index {
		o := i * seekPointBytes
		index[i] = seekPoint{
			pc:     binary.LittleEndian.Uint64(idxBytes[o:]),
			bitPos: binary.LittleEndian.Uint64(idxBytes[o+8:]),
			auxOff: int(binary.LittleEndian.Uint64(idxBytes[o+16:])),
			prevEA: binary.LittleEndian.Uint64(idxBytes[o+24:]),
		}
		if index[i].auxOff > len(aux) || index[i].bitPos > uint64(len(taken))*8 {
			return nil, fmt.Errorf("artifact: tape index point %d out of section bounds", i)
		}
	}
	if count > 0 {
		if index[0] != (seekPoint{pc: startPC}) {
			return nil, fmt.Errorf("artifact: tape index origin %+v inconsistent with start PC %#x", index[0], startPC)
		}
	}
	return &Tape{
		prog:    prog,
		startPC: startPC,
		count:   count,
		halted:  halted,
		taken:   taken,
		aux:     aux,
		index:   index,
	}, nil
}

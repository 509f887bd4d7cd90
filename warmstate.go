package pfe

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/program"
)

// Warm-state artifacts: the functionally warmed front-end state at a sampled
// run's first detailed-warmup boundary, serialized as a
// content-addressed blob. Functional warming replays every instruction of
// the skipped prefix through the cache hierarchy and the trained front-end
// structures — at 30 M-instruction warmups it dominates a sampled cell's
// wall time, and it is identical for every cell that shares the dynamic
// stream, the warm-relevant machine configuration, and the boundary. Caching
// the warmed state under that triple and letting it ride the artifact tier
// chain (in-process memory, then the local disk store) means a sweep pays
// the replay once instead of once per cell.

const (
	warmStateMagic   = "PFEW"
	warmStateVersion = 1

	warmPackMagic   = "PFWP"
	warmPackVersion = 1

	// warmStateMinInsts gates snapshotting: boundaries shorter than this
	// replay faster than a snapshot round-trips, so they always warm
	// directly.
	warmStateMinInsts = 1 << 18
)

// warmClassHash digests the warm-relevant machine configuration: everything
// that shapes the warmer's structures or their training decisions — the
// memory hierarchy, the fragment predictor tables, the fragment-selection
// heuristics, and the optional trained structures (live-out predictor,
// trace cache) when the machine has them. The fetch and rename engine kinds
// themselves are NOT part of the class: functional warming replays the
// true-path stream identically whatever engine later consumes the state, so
// e.g. W16, PF-2x8w and PF-4x4w — which differ only in detailed-simulation
// shape — all share one snapshot per benchmark.
func warmClassHash(m Machine) string {
	h := sha256.New()
	fmt.Fprintf(h, "mem:%+v|pred:%+v|frag:%+v", m.memory, m.frontEnd.Predictor, m.frontEnd.FragHeuristics)
	if m.frontEnd.Rename == core.RenameParallel {
		fmt.Fprintf(h, "|lo:%+v", m.frontEnd.LiveOut)
	}
	if m.frontEnd.Fetch == core.FetchTraceCache {
		fmt.Fprintf(h, "|tc:%d", m.frontEnd.TraceCache)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// warmClasses reduces a machine roster to its sorted, distinct warm class
// hashes — the set of snapshots one union replay of the shared prefix
// produces.
func warmClasses(machines []Machine) []string {
	var classes []string
	seen := map[string]bool{}
	for _, m := range machines {
		if c := warmClassHash(m); !seen[c] {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	return classes
}

// warmPackKey is the content address of one warm pack: the dynamic stream
// (spec), the sorted set of warm classes the pack carries, and the boundary
// the warmer stopped at. Keying the whole class set — rather than one blob
// per class — means every cell of a sweep, whatever its class, asks for the
// same key, so the cache's single-flight build serializes the union replay
// (one builder, the rest wait and restore). Tape length is deliberately not
// part of the key — the stream prefix below the boundary is identical
// whatever budget the tape was recorded to.
func warmPackKey(spec program.Spec, classes []string, boundary uint64) string {
	h := sha256.New()
	for _, c := range classes {
		io.WriteString(h, c)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("wp%d:%s:%s:%d", warmPackVersion, artifact.SpecHash(spec), hex.EncodeToString(h.Sum(nil))[:16], boundary)
}

// packSection is one class's snapshot inside a warm pack.
type packSection struct {
	class string
	data  []byte
}

// encodeWarmPack frames class snapshots into one blob: magic, version,
// section count, a (class hash, length) directory, then the payloads.
// Sections are sorted by class so the pack's bytes do not depend on which
// cell of the sweep happened to build it.
func encodeWarmPack(sections []packSection) []byte {
	sort.Slice(sections, func(i, j int) bool { return sections[i].class < sections[j].class })
	n := len(warmPackMagic) + 1 + 4
	for _, s := range sections {
		n += len(s.class) + 1 + 8 + len(s.data)
	}
	out := make([]byte, 0, n)
	out = append(out, warmPackMagic...)
	out = append(out, warmPackVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	for _, s := range sections {
		out = append(out, byte(len(s.class)))
		out = append(out, s.class...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.data)))
	}
	for _, s := range sections {
		out = append(out, s.data...)
	}
	return out
}

// warmPackSection extracts one class's snapshot from a pack. A malformed
// pack or an absent class is an error — the caller quarantines the blob and
// warms the long way.
func warmPackSection(pack []byte, class string) ([]byte, error) {
	if len(pack) < len(warmPackMagic)+1+4 || string(pack[:len(warmPackMagic)]) != warmPackMagic {
		return nil, fmt.Errorf("pfe: warm pack: bad magic")
	}
	if v := pack[len(warmPackMagic)]; v != warmPackVersion {
		return nil, fmt.Errorf("pfe: warm pack: version %d, want %d", v, warmPackVersion)
	}
	b := pack[len(warmPackMagic)+1:]
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	type dirent struct {
		class string
		size  uint64
	}
	dir := make([]dirent, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 1 || len(b) < 1+int(b[0])+8 {
			return nil, fmt.Errorf("pfe: warm pack: truncated directory")
		}
		cl := int(b[0])
		dir = append(dir, dirent{class: string(b[1 : 1+cl]), size: binary.LittleEndian.Uint64(b[1+cl:])})
		b = b[1+cl+8:]
	}
	for _, d := range dir {
		if uint64(len(b)) < d.size {
			return nil, fmt.Errorf("pfe: warm pack: truncated section %s", d.class)
		}
		if d.class == class {
			return b[:d.size], nil
		}
		b = b[d.size:]
	}
	return nil, fmt.Errorf("pfe: warm pack: no section for class %s", class)
}

// encodeWarmState serializes one warm class of a warmer that has just
// finished warmTo: reader position, the L1I block-elision cursor, the path
// history (twice: as the stream's speculative and retirement histories,
// equal between fragments), the hierarchy, and the trained structures the
// class has. The pending lookahead is not serialized — every consumer
// resyncs (drops it) before the next training step, so the post-restore
// state is exactly the post-resync state. The payload is gzip-compressed:
// cold table regions are long runs of zeros.
func encodeWarmState(w *warmer, mb *warmMember) ([]byte, error) {
	raw := make([]byte, 0, 1<<20)
	raw = binary.LittleEndian.AppendUint64(raw, w.rd.Pos())
	raw = binary.LittleEndian.AppendUint64(raw, mb.hier.lastIBlk)
	var flags byte
	if mb.lo != nil {
		flags |= 1
	}
	if mb.tc != nil {
		flags |= 2
	}
	raw = append(raw, flags)
	raw = mb.anchor.hist.AppendState(raw)
	raw = mb.anchor.hist.AppendState(raw)
	raw = mb.hier.hier.AppendState(raw)
	raw = mb.anchor.pred.AppendState(raw)
	if mb.lo != nil {
		raw = mb.lo.AppendState(raw)
	}
	if mb.tc != nil {
		raw = mb.tc.AppendState(raw)
	}

	var buf bytes.Buffer
	buf.WriteString(warmStateMagic)
	buf.WriteByte(warmStateVersion)
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeWarmState restores a snapshot into a freshly built one-class warmer
// for the same machine class and seeks its reader to the snapshot boundary.
// Any mismatch (foreign flags, wrong table geometry, unequal histories,
// trailing bytes) is an error — the caller quarantines the blob and warms
// the long way.
func decodeWarmState(w *warmer, data []byte) error {
	mb := &w.members[0]
	if len(data) < len(warmStateMagic)+1 || string(data[:len(warmStateMagic)]) != warmStateMagic {
		return fmt.Errorf("pfe: warm state: bad magic")
	}
	if v := data[len(warmStateMagic)]; v != warmStateVersion {
		return fmt.Errorf("pfe: warm state: version %d, want %d", v, warmStateVersion)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data[len(warmStateMagic)+1:]))
	if err != nil {
		return fmt.Errorf("pfe: warm state: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pfe: warm state: %w", err)
	}
	if len(raw) < 8+8+1 {
		return fmt.Errorf("pfe: warm state: truncated header")
	}
	pos := binary.LittleEndian.Uint64(raw)
	lastIBlk := binary.LittleEndian.Uint64(raw[8:])
	flags := raw[16]
	if (flags&1 != 0) != (mb.lo != nil) || (flags&2 != 0) != (mb.tc != nil) {
		return fmt.Errorf("pfe: warm state: structure flags %#x do not match machine", flags)
	}
	b := raw[17:]
	hist := b
	if b, err = mb.anchor.hist.LoadState(b); err != nil {
		return err
	}
	n := len(hist) - len(b)
	if len(b) < n || !bytes.Equal(hist[:n], b[:n]) {
		return fmt.Errorf("pfe: warm state: speculative and retirement histories differ")
	}
	b = b[n:]
	if b, err = mb.hier.hier.LoadState(b); err != nil {
		return err
	}
	if b, err = mb.anchor.pred.LoadState(b); err != nil {
		return err
	}
	if mb.lo != nil {
		if b, err = mb.lo.LoadState(b); err != nil {
			return err
		}
	}
	if mb.tc != nil {
		if b, err = mb.tc.LoadState(b, mb.anchor.tab.Frag); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("pfe: warm state: %d trailing bytes", len(b))
	}
	if err := w.rd.Seek(pos); err != nil {
		return err
	}
	mb.hier.lastIBlk = lastIBlk
	w.resync()
	return nil
}

// Union (matrix) warming. A sweep's cells all skip the same prefix, but
// split into warm classes by their trained structures; replaying the prefix
// once per class still repeats the expensive parts — tape decode and cache
// hierarchy training — for every class. The warmer's training loop has a
// strict dependency order that makes one shared replay exact: the cache
// hierarchies observe only the dynamic stream; the fragment predictor and
// both path histories observe only the stream and themselves; the live-out
// predictor and trace cache observe only the fetched-fragment sequence,
// which is fully determined by (stream, predictor). Nothing ever reads a
// hierarchy, live-out predictor or trace cache during warming. So a single
// pass can drive one prediction loop per (predictor config, heuristics)
// anchor group, feed every distinct hierarchy, and fill every distinct
// live-out predictor and trace cache — and each class's snapshot assembled
// from those components is bit-for-bit the snapshot a solo warm of that
// class would have produced (TestWarmStateUnionWarming pins this). A
// roster warmer is the same warmer as a run's own, with more members.

// warmThrough advances a fresh warmer to boundary, through the warm-state
// artifact tier when one is attached: the first cell of a sweep to reach a
// boundary replays the prefix once — training every distinct warm class of
// the roster side by side — and snapshots the results into one warm pack;
// every later cell, whatever its class — in this process or, through the
// disk store, in a later one — restores its section at decode cost. A pack that fails semantic decode is quarantined and the
// prefix replayed, so a poisoned blob can slow a run but never corrupt it.
func warmThrough(wm *warmer, spec program.Spec, m Machine, boundary uint64, opts RunOptions) (artifact.Info, error) {
	if opts.Artifacts == nil || boundary < warmStateMinInsts {
		return artifact.Info{}, wm.warmTo(boundary)
	}
	machines := append([]Machine{m}, opts.WarmRoster...)
	classes := warmClasses(machines)
	tab := wm.members[0].anchor.tab
	built := false
	data, info, err := opts.Artifacts.WarmStateInfo(warmPackKey(spec, classes, boundary), func() ([]byte, error) {
		// This cell runs the build: union warming over the roster, or —
		// when the roster is one class — its own warmer directly.
		set := wm
		if len(classes) > 1 {
			set = newWarmer(wm.rd, wm.prog, machines, tab)
		}
		if err := set.warmTo(boundary); err != nil {
			return nil, err
		}
		built = set == wm
		sections := make([]packSection, 0, len(set.members))
		for i := range set.members {
			mb := &set.members[i]
			b, err := encodeWarmState(set, mb)
			if err != nil {
				return nil, err
			}
			sections = append(sections, packSection{class: mb.class, data: b})
		}
		return encodeWarmPack(sections), nil
	})
	if err != nil {
		return info, err
	}
	if built {
		return info, nil // this cell ran a solo build: wm is already warm
	}
	section, err := warmPackSection(data, warmClassHash(m))
	if err == nil {
		err = decodeWarmState(wm, section)
	}
	if err != nil {
		// A failed decode may have partially mutated the warmer — rebuild it
		// from scratch (same backing reader, rewound) before replaying.
		opts.Artifacts.QuarantineWarm(info.Key)
		if err := wm.rd.Seek(0); err != nil {
			return artifact.Info{Key: info.Key, Source: "quarantined"}, err
		}
		*wm = *newWarmer(wm.rd, wm.prog, []Machine{m}, tab)
		return artifact.Info{Key: info.Key, Source: "quarantined"}, wm.warmTo(boundary)
	}
	return info, nil
}

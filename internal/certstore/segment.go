package certstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"stalecert/internal/x509sim"
)

// On-disk layout (one directory per store):
//
//	MANIFEST            JSON: sealed segment list + active segment name
//	CHECKPOINT          JSON: CT ingest resume point (see Checkpoint)
//	seg-000000.log      append-only record files
//	seg-000001.log      ...
//
// A segment file is an 8-byte magic header followed by length-prefixed
// records, each a full x509sim certificate encoding:
//
//	[4-byte BE payload length][cert.Marshal() payload]
//
// Sealed segments are immutable and carry a SHA-256 checksum in the
// manifest; the active segment is re-scanned on open and any partial tail
// record (a crash mid-append) is truncated away. The manifest and checkpoint
// are replaced atomically (write temp file, fsync, rename), so a kill at any
// instant leaves the store openable.

const (
	segmentMagic   = "CSTOREv1"
	manifestName   = "MANIFEST"
	checkpointName = "CHECKPOINT"

	// maxRecordBytes bounds one record at the longest certificate x509sim
	// decodes, the bound Append's certificates were held to; anything larger
	// is corruption.
	maxRecordBytes = x509sim.MaxMarshaledLen
)

// Segment-layer errors.
var (
	ErrCorruptManifest = errors.New("certstore: corrupt manifest")
	ErrCorruptSegment  = errors.New("certstore: corrupt segment")
	ErrChecksum        = errors.New("certstore: sealed segment checksum mismatch")
)

// segmentMeta describes one sealed (immutable) segment in the manifest.
type segmentMeta struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Count  int    `json:"count"`
	SHA256 string `json:"sha256"`
}

// manifest is the store's crash-safe segment directory.
type manifest struct {
	Version int           `json:"version"`
	Sealed  []segmentMeta `json:"sealed"`
	Active  string        `json:"active"`
}

func segmentFileName(n int) string { return fmt.Sprintf("seg-%06d.log", n) }

// nextSegment names the segment past the highest-numbered one m names. A file
// by that name can only be an orphan of a crash between createSegment and the
// manifest write: it holds nothing the store committed.
func (m *manifest) nextSegment() string {
	last := segmentNumber(m.Active)
	for _, meta := range m.Sealed {
		last = max(last, segmentNumber(meta.Name))
	}
	return segmentFileName(last + 1)
}

// segmentNumber is the n of segmentFileName(n), and 0 for a name of another
// form, which no segmentFileName can collide with.
func segmentNumber(name string) int {
	var n int
	_, _ = fmt.Sscanf(name, "seg-%d.log", &n)
	return n
}

// writeFileAtomic replaces path with data via a same-directory temp file and
// rename, fsyncing both the file and (best-effort) the directory.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

func loadManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	if m.Version != 1 || m.Active == "" {
		return nil, fmt.Errorf("%w: version=%d active=%q", ErrCorruptManifest, m.Version, m.Active)
	}
	return &m, nil
}

func (m *manifest) store(dir string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, manifestName), append(raw, '\n'))
}

// appendRecord appends cert's length-prefixed record to b.
func appendRecord(b []byte, cert *x509sim.Certificate) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(cert.MarshaledLen()))
	return cert.AppendMarshal(b)
}

// segmentScan is the result of reading a segment file.
type segmentScan struct {
	certs []*x509sim.Certificate
	// goodBytes is the offset after the last complete record; anything past
	// it is a torn tail write.
	goodBytes int64
	// torn reports whether trailing bytes past goodBytes exist.
	torn bool
	// sum is the SHA-256 of the good prefix.
	sum [sha256.Size]byte
}

// readSegment parses a segment file, stopping cleanly at a torn tail record.
// Corruption *before* the tail (bad magic, oversized length, undecodable
// payload followed by more records) is an error: a sealed segment must be
// perfect, and an active segment is only ever damaged at its end.
func readSegment(path string) (*segmentScan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSegment(filepath.Base(path), raw)
}

// parseSegment is readSegment over the bytes of the segment file name.
func parseSegment(name string, raw []byte) (*segmentScan, error) {
	if len(raw) < len(segmentMagic) || string(raw[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorruptSegment, name)
	}
	scan := &segmentScan{goodBytes: int64(len(segmentMagic))}
	off := len(segmentMagic)
	for off < len(raw) {
		if len(raw)-off < 4 {
			scan.torn = true
			break
		}
		n := int(binary.BigEndian.Uint32(raw[off:]))
		if n > maxRecordBytes {
			return nil, fmt.Errorf("%w: %s: record length %d at offset %d", ErrCorruptSegment, name, n, off)
		}
		if len(raw)-off-4 < n {
			scan.torn = true
			break
		}
		cert, err := x509sim.Unmarshal(raw[off+4 : off+4+n])
		if err != nil {
			// A complete-length but undecodable record is real corruption,
			// not a torn append.
			return nil, fmt.Errorf("%w: %s: record at offset %d: %v", ErrCorruptSegment, name, off, err)
		}
		scan.certs = append(scan.certs, cert)
		off += 4 + n
		scan.goodBytes = int64(off)
	}
	scan.sum = sha256.Sum256(raw[:scan.goodBytes])
	return scan, nil
}

// verifySealed re-reads a sealed segment and checks it against its manifest
// entry: exact size, no torn tail, matching count and checksum.
func verifySealed(dir string, meta segmentMeta) ([]*x509sim.Certificate, error) {
	scan, err := readSegment(filepath.Join(dir, meta.Name))
	if err != nil {
		return nil, err
	}
	if scan.torn || scan.goodBytes != meta.Bytes || len(scan.certs) != meta.Count {
		return nil, fmt.Errorf("%w: %s: have %d bytes / %d certs, manifest says %d / %d",
			ErrCorruptSegment, meta.Name, scan.goodBytes, len(scan.certs), meta.Bytes, meta.Count)
	}
	if hex.EncodeToString(scan.sum[:]) != meta.SHA256 {
		return nil, fmt.Errorf("%w: %s", ErrChecksum, meta.Name)
	}
	return scan.certs, nil
}

// createSegment creates a fresh segment file with its magic header, fsynced.
// A file already at path is one the manifest does not name, and is replaced.
func createSegment(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, int64(len(segmentMagic)), nil
}

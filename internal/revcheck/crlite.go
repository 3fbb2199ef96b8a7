package revcheck

import (
	"encoding/binary"

	"stalecert/internal/crlite"
	"stalecert/internal/x509sim"
)

// dedupKeyBytes serialises a certificate's (issuer, serial) join key for
// filter membership.
func dedupKeyBytes(key x509sim.DedupKey) []byte {
	b := make([]byte, 10)
	binary.BigEndian.PutUint16(b, uint16(key.Issuer))
	binary.BigEndian.PutUint64(b[2:], uint64(key.Serial))
	return b
}

// BuildCRLiteFilter constructs a cascade for a certificate universe given
// its revoked keys. It is keyed by (issuer, serial), what a CRL revokes:
// bodies sharing a key (a precertificate and its final certificate) are one
// member of the universe, so each key lands on exactly one side.
func BuildCRLiteFilter(universe []*x509sim.Certificate, isRevoked map[x509sim.DedupKey]bool) (*crlite.Filter, error) {
	var revoked, valid [][]byte
	seen := make(map[x509sim.DedupKey]bool, len(universe))
	for _, c := range universe {
		key := c.DedupKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		if isRevoked[key] {
			revoked = append(revoked, dedupKeyBytes(key))
		} else {
			valid = append(valid, dedupKeyBytes(key))
		}
	}
	return crlite.Build(revoked, valid, 0)
}

package dnssim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"stalecert/internal/dnsname"
)

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the simulator.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String names the response code.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(r))
}

// Header is the fixed 12-byte DNS message header, decoded.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is one query.
type Question struct {
	Name  string
	Type  RRType
	Class uint16
}

// Message is a full DNS message.
type Message struct {
	Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// Codec errors.
var (
	ErrWireTruncated   = errors.New("dnssim: truncated message")
	ErrBadPointer      = errors.New("dnssim: bad compression pointer")
	ErrPointerLoop     = errors.New("dnssim: compression pointer loop")
	ErrNameTooLong     = errors.New("dnssim: name too long")
	ErrLabelTooLong    = errors.New("dnssim: label too long")
	ErrDotInLabel      = errors.New("dnssim: label contains a dot")
	ErrTrailingGarbage = errors.New("dnssim: trailing bytes")
)

// MaxUDPPayload is the classic 512-byte DNS/UDP ceiling. Larger responses
// set TC and get truncated, which the resolver surfaces.
const MaxUDPPayload = 512

// Marshal encodes the message with RFC 1035 name compression.
func (m *Message) Marshal() ([]byte, error) {
	b := make([]byte, 12, 256)
	binary.BigEndian.PutUint16(b[0:], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode) & 0xF
	binary.BigEndian.PutUint16(b[2:], flags)
	binary.BigEndian.PutUint16(b[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(b[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(b[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(b[10:], uint16(len(m.Additional)))

	comp := map[string]int{}
	var err error
	for _, q := range m.Questions {
		if b, err = appendName(b, q.Name, comp); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, q.Class)
	}
	for _, sec := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			if b, err = appendRecord(b, r, comp); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func appendName(b []byte, name string, comp map[string]int) ([]byte, error) {
	name = dnsname.Canonical(name)
	if len(name) > 253 {
		return nil, ErrNameTooLong
	}
	for name != "" {
		if off, ok := comp[name]; ok && off < 0x3FFF {
			return binary.BigEndian.AppendUint16(b, 0xC000|uint16(off)), nil
		}
		if len(b) < 0x3FFF {
			comp[name] = len(b)
		}
		label := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			label, name = name[:i], name[i+1:]
		} else {
			name = ""
		}
		if len(label) == 0 || len(label) > 63 {
			return nil, ErrLabelTooLong
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

func appendRecord(b []byte, r Record, comp map[string]int) ([]byte, error) {
	b, err := appendName(b, r.Name, comp)
	if err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(r.Type))
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	b = binary.BigEndian.AppendUint32(b, r.TTL)
	// Reserve RDLENGTH, fill after writing RDATA.
	lenAt := len(b)
	b = append(b, 0, 0)
	switch r.Type {
	case TypeA, TypeAAAA:
		ip, perr := netip.ParseAddr(r.Data)
		if perr != nil {
			return nil, fmt.Errorf("dnssim: marshal %s: %w", r.Type, perr)
		}
		raw := ip.AsSlice()
		if (r.Type == TypeA && len(raw) != 4) || (r.Type == TypeAAAA && len(raw) != 16) {
			return nil, fmt.Errorf("dnssim: marshal %s: wrong address family %q", r.Type, r.Data)
		}
		b = append(b, raw...)
	case TypeNS, TypeCNAME:
		if b, err = appendName(b, r.Data, comp); err != nil {
			return nil, err
		}
	case TypeTXT:
		if len(r.Data) > 255 {
			return nil, fmt.Errorf("dnssim: marshal TXT: data too long")
		}
		b = append(b, byte(len(r.Data)))
		b = append(b, r.Data...)
	case TypeSOA:
		// Minimal SOA: mname = Data, rname = hostmaster.<mname>, zero timers.
		if b, err = appendName(b, r.Data, comp); err != nil {
			return nil, err
		}
		if b, err = appendName(b, "hostmaster."+r.Data, comp); err != nil {
			return nil, err
		}
		b = append(b, make([]byte, 20)...)
	default:
		return nil, fmt.Errorf("dnssim: marshal: unsupported type %v", r.Type)
	}
	binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-lenAt-2))
	return b, nil
}

// Unmarshal decodes a full DNS message.
func Unmarshal(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrWireTruncated
	}
	m := &Message{}
	m.ID = binary.BigEndian.Uint16(b[0:])
	flags := binary.BigEndian.Uint16(b[2:])
	m.Response = flags&(1<<15) != 0
	m.Opcode = uint8(flags >> 11 & 0xF)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xF)
	qd := int(binary.BigEndian.Uint16(b[4:]))
	an := int(binary.BigEndian.Uint16(b[6:]))
	ns := int(binary.BigEndian.Uint16(b[8:]))
	ar := int(binary.BigEndian.Uint16(b[10:]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = readName(b, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(b) {
			return nil, ErrWireTruncated
		}
		q.Type = RRType(binary.BigEndian.Uint16(b[off:]))
		q.Class = binary.BigEndian.Uint16(b[off+2:])
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range []struct {
		n   int
		dst *[]Record
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}} {
		for i := 0; i < sec.n; i++ {
			var r Record
			r, off, err = readRecord(b, off)
			if err != nil {
				return nil, err
			}
			*sec.dst = append(*sec.dst, r)
		}
	}
	if off != len(b) {
		return nil, ErrTrailingGarbage
	}
	return m, nil
}

func readName(b []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumps := 0
	ptrEnd := -1 // position after the first pointer, where parsing resumes
	for {
		if off >= len(b) {
			return "", 0, ErrWireTruncated
		}
		c := b[off]
		switch {
		case c == 0:
			off++
			if ptrEnd >= 0 {
				off = ptrEnd
			}
			name := sb.String()
			if len(name) > 253 {
				return "", 0, ErrNameTooLong
			}
			return name, off, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(b) {
				return "", 0, ErrWireTruncated
			}
			target := int(binary.BigEndian.Uint16(b[off:]) & 0x3FFF)
			if target >= off {
				return "", 0, ErrBadPointer
			}
			if ptrEnd < 0 {
				ptrEnd = off + 2
			}
			jumps++
			if jumps > 32 {
				return "", 0, ErrPointerLoop
			}
			off = target
		case c&0xC0 != 0:
			return "", 0, ErrBadPointer
		default:
			l := int(c)
			if off+1+l > len(b) {
				return "", 0, ErrWireTruncated
			}
			// The dotted form cannot hold it: one label "ns.provider.com" would
			// read as three.
			if bytes.IndexByte(b[off+1:off+1+l], '.') >= 0 {
				return "", 0, ErrDotInLabel
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(b[off+1 : off+1+l])
			off += 1 + l
			if sb.Len() > 253 {
				return "", 0, ErrNameTooLong
			}
		}
	}
}

func readRecord(b []byte, off int) (Record, int, error) {
	var r Record
	var err error
	r.Name, off, err = readName(b, off)
	if err != nil {
		return r, 0, err
	}
	if off+10 > len(b) {
		return r, 0, ErrWireTruncated
	}
	r.Type = RRType(binary.BigEndian.Uint16(b[off:]))
	r.TTL = binary.BigEndian.Uint32(b[off+4:])
	rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
	off += 10
	if off+rdlen > len(b) {
		return r, 0, ErrWireTruncated
	}
	rdEnd := off + rdlen
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, 0, fmt.Errorf("dnssim: A rdata length %d", rdlen)
		}
		addr, _ := netip.AddrFromSlice(b[off:rdEnd])
		r.Data = addr.String()
	case TypeAAAA:
		if rdlen != 16 {
			return r, 0, fmt.Errorf("dnssim: AAAA rdata length %d", rdlen)
		}
		addr, _ := netip.AddrFromSlice(b[off:rdEnd])
		r.Data = addr.String()
	case TypeNS, TypeCNAME:
		var end int
		r.Data, end, err = readName(b, off)
		if err != nil {
			return r, 0, err
		}
		if end > rdEnd {
			return r, 0, ErrWireTruncated
		}
	case TypeTXT:
		if rdlen < 1 || int(b[off])+1 > rdlen {
			return r, 0, fmt.Errorf("dnssim: TXT rdata malformed")
		}
		r.Data = string(b[off+1 : off+1+int(b[off])])
	case TypeSOA:
		var end int
		r.Data, end, err = readName(b, off)
		if err != nil {
			return r, 0, err
		}
		if end > rdEnd {
			return r, 0, ErrWireTruncated
		}
	default:
		// Unknown types carried opaquely (hex would be nicer; skip suffices).
		r.Data = ""
	}
	return r, rdEnd, nil
}

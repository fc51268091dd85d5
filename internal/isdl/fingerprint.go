package isdl

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
)

// Content fingerprints. The exploration loop mutates one operation at a
// time, so neighbouring candidate descriptions share almost every
// definition; per-definition fingerprints let the toolchain caches
// (compiled-op closures in xsim) key by exactly the content a generated
// artifact depends on, instead of the whole description. A fingerprint is a SHA-256 over canonical text (the same
// rendering Format uses), so formatting differences never split equal
// content and any textual change to a definition changes its fingerprint.

// Fingerprint is a content hash of one definition or section.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// FormatOp renders the canonical text of a single operation definition —
// the same fragment Format emits inside the operation's field.
func FormatOp(op *Operation) string {
	var sb strings.Builder
	formatOp(&sb, op)
	return sb.String()
}

// FormatNonTerminal renders the canonical text of one non-terminal
// definition, as Format emits it.
func FormatNonTerminal(nt *NonTerminal) string {
	var sb strings.Builder
	formatNT(&sb, nt)
	return sb.String()
}

// OpFingerprint hashes everything the semantics of one operation depend
// on besides the machine state layout: the operation's own canonical text
// (syntax, encoding, RTL, costs, timing) plus the canonical definition of
// every non-terminal transitively reachable from its parameters (an
// option's Value and SideEffect execute as part of the operation). Token
// definitions are excluded on purpose: they only shape decoding, and
// consumers key decoded argument values separately.
func OpFingerprint(op *Operation) Fingerprint {
	h := sha256.New()
	writeLenPrefixed(h, FormatOp(op))
	nts := map[string]*NonTerminal{}
	collectNTs(op.Params, nts)
	names := make([]string, 0, len(nts))
	for n := range nts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeLenPrefixed(h, FormatNonTerminal(nts[n]))
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// collectNTs gathers the non-terminals reachable from a parameter list.
func collectNTs(params []*Param, out map[string]*NonTerminal) {
	for _, p := range params {
		if p.NT == nil || out[p.NT.Name] != nil {
			continue
		}
		out[p.NT.Name] = p.NT
		for _, opt := range p.NT.Options {
			collectNTs(opt.Params, out)
		}
	}
}

// LayoutFingerprint hashes the state layout of a description: the storage
// and alias declarations in order, exactly as Format renders them. Two
// descriptions with equal layout fingerprints resolve every storage and
// alias reference to the same index and element geometry, so compiled
// artifacts that address state positionally transfer between them.
func LayoutFingerprint(d *Description) Fingerprint {
	h := sha256.New()
	var sb strings.Builder
	for _, st := range d.Storage {
		sb.Reset()
		sb.WriteString(st.Kind.String())
		sb.WriteByte(' ')
		sb.WriteString(st.Name)
		writeInt(&sb, st.Width)
		writeInt(&sb, st.Depth)
		writeInt(&sb, int(st.Base))
		writeLenPrefixed(h, sb.String())
	}
	for _, a := range d.Aliases {
		sb.Reset()
		sb.WriteString("alias ")
		sb.WriteString(a.Name)
		sb.WriteByte('=')
		sb.WriteString(a.Target)
		if a.Indexed {
			writeInt(&sb, int(a.Index))
		}
		if a.Sliced {
			writeInt(&sb, a.Hi)
			writeInt(&sb, a.Lo)
		}
		writeLenPrefixed(h, sb.String())
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

func writeInt(sb *strings.Builder, v int) {
	sb.WriteByte(' ')
	// Decimal render without fmt on this many-small-calls path.
	if v < 0 {
		sb.WriteByte('-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	sb.Write(buf[i:])
}

// writeLenPrefixed writes one length-prefixed string into a hash, so no
// two distinct sequences of parts collide by concatenation.
func writeLenPrefixed(h interface{ Write([]byte) (int, error) }, s string) {
	var n [8]byte
	for i, l := 0, len(s); i < 8; i++ {
		n[i] = byte(l >> (8 * i))
	}
	h.Write(n[:])
	h.Write([]byte(s))
}

package isdl

import "fmt"

// lexKind classifies lexical tokens of the ISDL concrete syntax.
type lexKind int

const (
	lexEOF lexKind = iota
	lexIdent
	lexNumber // decimal, 0b…, 0x…, or sized n'b/n'h/n'd
	lexString
	lexPunct // single- or multi-character operator / punctuation
)

// lexToken is one lexical token.
type lexToken struct {
	Kind lexKind
	Text string
	Pos  Pos

	// Number payload.
	NumVal   uint64
	NumWidth int // 0 for unsized decimals
}

// lexError reports a lexical or syntax error with its position.
type lexError struct {
	Pos Pos
	Msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// isPunct2 reports whether s is a two-character operator. The lexer tries
// these before single characters so maximal munch wins ("<-" never lexes
// as "<" then "-").
func isPunct2(s string) bool {
	switch s {
	case "<-", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "..":
		return true
	}
	return false
}

// punct1 marks the bytes that are one-character punctuation tokens.
var punct1 = func() (t [256]bool) {
	for _, c := range "(){}[]:;,.#+-*/%&|^~!<>=@" {
		t[c] = true
	}
	return t
}()

type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.off] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.off++
	}
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '/':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '*':
			start := l.pos()
			l.advance(2)
			for {
				if l.off+1 >= len(l.src) {
					return &lexError{start, "unterminated block comment"}
				}
				if l.src[l.off] == '*' && l.src[l.off+1] == '/' {
					l.advance(2)
					break
				}
				l.advance(1)
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (lexToken, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return lexToken{}, err
	}
	if l.off >= len(l.src) {
		return lexToken{Kind: lexEOF, Pos: l.pos()}, nil
	}
	p := l.pos()
	c := l.src[l.off]

	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
			l.advance(1)
		}
		return lexToken{Kind: lexIdent, Text: l.src[start:l.off], Pos: p}, nil

	case c == '"':
		l.advance(1)
		start := l.off
		for l.off < len(l.src) && l.src[l.off] != '"' && l.src[l.off] != '\n' {
			l.advance(1)
		}
		if l.off >= len(l.src) || l.src[l.off] != '"' {
			return lexToken{}, &lexError{p, "unterminated string"}
		}
		s := l.src[start:l.off]
		l.advance(1)
		return lexToken{Kind: lexString, Text: s, Pos: p}, nil

	case isDigit(c):
		return l.lexNumber(p)
	}

	n := 0
	switch {
	case l.off+1 < len(l.src) && isPunct2(l.src[l.off:l.off+2]):
		n = 2
	case punct1[c]:
		n = 1
	default:
		return lexToken{}, &lexError{p, fmt.Sprintf("unexpected character %q", c)}
	}
	text := l.src[l.off : l.off+n]
	l.advance(n)
	return lexToken{Kind: lexPunct, Text: text, Pos: p}, nil
}

// lexNumber handles:
//
//	123        unsized decimal
//	0b1011     sized binary, width = digit count
//	0x2f       sized hexadecimal, width = 4 × digit count
//	8'd255     sized decimal
//	8'hff      sized hexadecimal
//	4'b1010    sized binary
func (l *lexer) lexNumber(p Pos) (lexToken, error) {
	start := l.off
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.advance(1)
	}
	dec := l.src[start:l.off]

	if l.off < len(l.src) && l.src[l.off] == '\'' {
		// Verilog-style sized literal.
		width, err := parseDecimal(dec)
		if err != nil || width == 0 {
			return lexToken{}, &lexError{p, "invalid literal width"}
		}
		l.advance(1)
		if l.off >= len(l.src) {
			return lexToken{}, &lexError{p, "truncated sized literal"}
		}
		base := l.src[l.off]
		l.advance(1)
		ds := l.off
		for l.off < len(l.src) && (isIdentCont(l.src[l.off])) {
			l.advance(1)
		}
		digits := l.src[ds:l.off]
		var v uint64
		switch base {
		case 'd':
			v, err = parseDecimal(digits)
		case 'h':
			v, err = parseHex(digits)
		case 'b':
			v, err = parseBin(digits)
		default:
			return lexToken{}, &lexError{p, fmt.Sprintf("unknown literal base %q", base)}
		}
		if err != nil {
			return lexToken{}, &lexError{p, err.Error()}
		}
		if int(width) > 64 {
			return lexToken{}, &lexError{p, "sized literals wider than 64 bits are not supported; use concat"}
		}
		return lexToken{Kind: lexNumber, Text: l.src[start:l.off], Pos: p, NumVal: v, NumWidth: int(width)}, nil
	}

	if dec == "0" && l.off < len(l.src) && (l.src[l.off] == 'b' || l.src[l.off] == 'x') {
		base := l.src[l.off]
		l.advance(1)
		ds := l.off
		for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
			l.advance(1)
		}
		digits := l.src[ds:l.off]
		if len(digits) == 0 {
			return lexToken{}, &lexError{p, "truncated numeric literal"}
		}
		var v uint64
		var err error
		var width int
		switch base {
		case 'b':
			v, err = parseBin(digits)
			width = len(digits)
		case 'x':
			v, err = parseHex(digits)
			width = 4 * len(digits)
		}
		if err != nil {
			return lexToken{}, &lexError{p, err.Error()}
		}
		if width > 64 {
			return lexToken{}, &lexError{p, "literals wider than 64 bits are not supported; use concat"}
		}
		return lexToken{Kind: lexNumber, Text: l.src[start:l.off], Pos: p, NumVal: v, NumWidth: width}, nil
	}

	v, err := parseDecimal(dec)
	if err != nil {
		return lexToken{}, &lexError{p, err.Error()}
	}
	return lexToken{Kind: lexNumber, Text: dec, Pos: p, NumVal: v, NumWidth: 0}, nil
}

func parseDecimal(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid decimal digit %q", c)
		}
		nv := v*10 + uint64(c-'0')
		if nv < v {
			return 0, fmt.Errorf("decimal literal overflows 64 bits")
		}
		v = nv
	}
	return v, nil
}

func parseHex(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	for _, c := range s {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("invalid hex digit %q", c)
		}
		if v>>60 != 0 {
			return 0, fmt.Errorf("hex literal overflows 64 bits")
		}
		v = v<<4 | d
	}
	return v, nil
}

func parseBin(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	for _, c := range s {
		if c != '0' && c != '1' {
			return 0, fmt.Errorf("invalid binary digit %q", c)
		}
		if v>>63 != 0 {
			return 0, fmt.Errorf("binary literal overflows 64 bits")
		}
		v = v<<1 | uint64(c-'0')
	}
	return v, nil
}

package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , . ; * = < > <= >= != [ ] :
	tokParam  // ? (positional parameter)
)

// token is one lexical token with its position for error messages.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case
	pos  int    // byte offset in the input
}

// keywords maps each keyword recognized by the lexer (PIQL = SQL subset +
// extensions), upper-cased, to itself: the value is the canonical text a
// keyword token carries, so emitting it allocates nothing.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE AND OR JOIN ON ORDER BY ASC DESC LIMIT PAGINATE
		INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE INDEX PRIMARY KEY
		FOREIGN REFERENCES CARDINALITY NOT NULL TRUE FALSE LIKE CONTAINS IN
		AS GROUP COUNT SUM AVG MIN MAX INT BIGINT VARCHAR TEXT BOOLEAN
		DOUBLE FLOAT BLOB TIMESTAMP UNIQUE FIXED TOKEN`) {
		if len(kw) > maxKeywordLen {
			panic("parser: keyword " + kw + " is longer than maxKeywordLen")
		}
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = len("CARDINALITY")

// symbols are the one-byte symbol tokens.
const symbols = "(),.;*=[]:+-"

// lexer splits a PIQL statement into tokens.
//
// Keywords match ASCII-case-insensitively: an identifier with a byte
// outside ASCII is never a keyword. Identifiers are Unicode letters,
// digits and '_', decoded as UTF-8; invalid UTF-8 is a syntax error. A
// token's text is a slice of the source, except a keyword's (its
// canonical upper-case spelling) and that of a string literal escaping
// a quote by doubling it, whose text is built with each pair unescaped.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src, returning a syntax error with position on failure.
// The token slice is its one allocation, sized from the source's length:
// a token every three bytes, plus eight, holds every statement
// TestLexAllocations pins; a denser one grows the slice.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, toks: make([]token, 0, len(src)/3+8)}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		r, _ := l.runeAt(l.pos)
		switch {
		case isIdentStart(r):
			l.lexIdent(start)
		case c >= '0' && c <= '9':
			if err := l.lexNumber(start); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		case c == '?':
			l.pos++
			l.emit(tokParam, "?", start)
		case c == '<' || c == '>' || c == '!':
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			} else if c == '<' && l.pos < len(l.src) && l.src[l.pos] == '>' {
				l.pos++
			}
			l.emit(tokSymbol, l.src[start:l.pos], start)
		case strings.IndexByte(symbols, c) >= 0:
			l.pos++
			l.emit(tokSymbol, l.src[start:l.pos], start)
		default:
			return nil, &syntaxError{pos: start, msg: fmt.Sprintf("unexpected character %q", r)}
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// runeAt decodes the rune at byte offset i and its width: an ASCII byte
// is itself, and an invalid encoding is utf8.RuneError, which is neither
// a letter nor a digit.
func (l *lexer) runeAt(i int) (rune, int) {
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) {
		r, size := l.runeAt(l.pos)
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	if len(text) <= maxKeywordLen {
		// Fold ASCII case only: a byte outside ASCII stays as it is and
		// matches no keyword.
		var upper [maxKeywordLen]byte
		for i := 0; i < len(text); i++ {
			c := text[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			upper[i] = c
		}
		if kw, ok := keywords[string(upper[:len(text)])]; ok {
			l.emit(tokKeyword, kw, start)
			return
		}
	}
	l.emit(tokIdent, text, start)
}

func (l *lexer) lexNumber(start int) error {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			if seenDot {
				return &syntaxError{pos: start, msg: "malformed number"}
			}
			seenDot = true
			l.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	l.emit(tokNumber, l.src[start:l.pos], start)
	return nil
}

// lexString lexes a quoted literal. Its text is the source between the
// quotes; only a literal holding a doubled quote (the escape for one
// quote) builds a new string.
func (l *lexer) lexString(start int) error {
	escaped := false
	for l.pos = start + 1; l.pos < len(l.src); l.pos++ {
		if l.src[l.pos] != '\'' {
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			escaped = true
			l.pos++ // doubled quote escape
			continue
		}
		text := l.src[start+1 : l.pos]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		l.pos++ // closing quote
		l.emit(tokString, text, start)
		return nil
	}
	return &syntaxError{pos: start, msg: "unterminated string literal"}
}

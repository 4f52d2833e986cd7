// Package sqldb implements the embedded SQL engine that stands in for
// PostgreSQL in this reproduction (see docs/reproduction.md). It provides
// the surface pgFMU needs: CREATE/DROP TABLE, INSERT/UPDATE/DELETE, SELECT
// with WHERE, GROUP BY/aggregates, ORDER BY/LIMIT, cross and LATERAL joins,
// scalar and set-returning user-defined functions (the UDF mechanism
// pgFMU's SQL API is built on), generate_series, casts, and prepared
// statements with $n parameters.
package sqldb

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tEOF    tokKind = iota
	tIdent          // possibly-folded identifier
	tQuoted         // "quoted" identifier (case preserved)
	tNumber
	tString // 'string literal'
	tParam  // $1, $2, ...
	tSymbol
	tKeyword
)

// sqlKeywords are the reserved words recognised by the parser. Identifiers
// matching these (case-insensitively) lex as keywords.
var sqlKeywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "offset": true, "as": true,
	"and": true, "or": true, "not": true, "in": true, "is": true, "null": true,
	"true": true, "false": true, "create": true, "table": true, "drop": true,
	"insert": true, "into": true, "values": true, "update": true, "set": true,
	"delete": true, "if": true, "exists": true, "asc": true, "desc": true,
	"join": true, "inner": true, "left": true, "outer": true, "cross": true,
	"on": true, "lateral": true, "like": true, "between": true, "case": true,
	"when": true, "then": true, "else": true, "end": true, "cast": true,
	"distinct": true, "begin": true, "commit": true, "rollback": true,
	"prepare": true, "execute": true, "default": true,
	"index": true, "using": true, "explain": true, "analyze": true,
}

type sqlToken struct {
	kind tokKind
	text string
	pos  int // byte offset for error messages
}

func (t sqlToken) String() string {
	if t.kind == tEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// ParseError reports a lexing or parsing failure with the byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at offset %d: %s", e.Pos, e.Msg)
}

func parseErr(pos int, format string, args ...any) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lexSQL tokenizes the query (EOF token included).
func lexSQL(src string) ([]sqlToken, error) {
	var toks []sqlToken
	rs := []rune(src)
	i := 0
	// Prefix byte offsets per rune index, computed once: recomputing
	// len(string(rs[:i])) per token is O(n) each and makes lexing large
	// scripts (multi-thousand-statement dumps) quadratic.
	offs := make([]int, len(rs)+1)
	for j, r := range rs {
		offs[j+1] = offs[j] + utf8.RuneLen(r)
	}
	bytePos := func(runeIdx int) int { return offs[runeIdx] }
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '-' && i+1 < len(rs) && rs[i+1] == '-':
			for i < len(rs) && rs[i] != '\n' {
				i++
			}
		case r == '/' && i+1 < len(rs) && rs[i+1] == '*':
			start := i
			i += 2
			closed := false
			for i+1 < len(rs) {
				if rs[i] == '*' && rs[i+1] == '/' {
					i += 2
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, parseErr(bytePos(start), "unterminated block comment")
			}
		case unicode.IsLetter(r) || r == '_':
			start := i
			for i < len(rs) && (unicode.IsLetter(rs[i]) || unicode.IsDigit(rs[i]) || rs[i] == '_') {
				i++
			}
			word := string(rs[start:i])
			lower := strings.ToLower(word)
			if sqlKeywords[lower] {
				toks = append(toks, sqlToken{kind: tKeyword, text: lower, pos: bytePos(start)})
			} else {
				// Unquoted identifiers fold to lowercase, as in PostgreSQL.
				toks = append(toks, sqlToken{kind: tIdent, text: lower, pos: bytePos(start)})
			}
		case unicode.IsDigit(r) || (r == '.' && i+1 < len(rs) && unicode.IsDigit(rs[i+1])):
			start := i
			seenDot, seenExp := false, false
			for i < len(rs) {
				c := rs[i]
				if unicode.IsDigit(c) {
					i++
				} else if c == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
				} else if (c == 'e' || c == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < len(rs) && (rs[i] == '+' || rs[i] == '-') {
						i++
					}
				} else {
					break
				}
			}
			toks = append(toks, sqlToken{kind: tNumber, text: string(rs[start:i]), pos: bytePos(start)})
		case r == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= len(rs) {
					return nil, parseErr(bytePos(start), "unterminated string literal")
				}
				if rs[i] == '\'' {
					if i+1 < len(rs) && rs[i+1] == '\'' { // escaped quote
						sb.WriteRune('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteRune(rs[i])
				i++
			}
			toks = append(toks, sqlToken{kind: tString, text: sb.String(), pos: bytePos(start)})
		case r == '"':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= len(rs) {
					return nil, parseErr(bytePos(start), "unterminated quoted identifier")
				}
				if rs[i] == '"' {
					if i+1 < len(rs) && rs[i+1] == '"' {
						sb.WriteRune('"')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteRune(rs[i])
				i++
			}
			toks = append(toks, sqlToken{kind: tQuoted, text: sb.String(), pos: bytePos(start)})
		case r == '$':
			start := i
			i++
			numStart := i
			for i < len(rs) && unicode.IsDigit(rs[i]) {
				i++
			}
			if i == numStart {
				return nil, parseErr(bytePos(start), "expected parameter number after $")
			}
			toks = append(toks, sqlToken{kind: tParam, text: string(rs[numStart:i]), pos: bytePos(start)})
		default:
			start := i
			// Multi-char operators.
			if i+1 < len(rs) {
				two := string(rs[i : i+2])
				switch two {
				case "<=", ">=", "<>", "!=", "||", "::":
					i += 2
					toks = append(toks, sqlToken{kind: tSymbol, text: two, pos: bytePos(start)})
					continue
				}
			}
			switch r {
			case '+', '-', '*', '/', '%', '(', ')', ',', ';', '=', '<', '>', '.':
				i++
				toks = append(toks, sqlToken{kind: tSymbol, text: string(r), pos: bytePos(start)})
			default:
				return nil, parseErr(bytePos(start), "unexpected character %q", string(r))
			}
		}
	}
	toks = append(toks, sqlToken{kind: tEOF, pos: len(src)})
	return toks, nil
}

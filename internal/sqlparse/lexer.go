// Package sqlparse implements HRDBMS's SQL front-end: a lexer and
// recursive-descent parser covering the OLAP dialect the paper's TPC-H
// workload needs (SELECT with joins, grouping, HAVING, ORDER BY/LIMIT,
// scalar/IN/EXISTS subqueries, CASE, BETWEEN, LIKE, date and interval
// literals) plus DDL with partitioning clauses and DML.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp    // punctuation and operators
	TokParam // ? placeholders (reserved)
)

// Token is one lexed token.
type Token struct {
	Kind TokKind
	Text string // keywords are upper-cased, identifiers lower-cased; string literals keep their case
	Pos  int
}

var keywords = map[string]bool{}

func init() {
	for _, k := range []string{
		"SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
		"LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN", "EXISTS", "BETWEEN",
		"LIKE", "IS", "NULL", "CASE", "WHEN", "THEN", "ELSE", "END", "ASC",
		"DESC", "JOIN", "INNER", "ON", "CREATE", "TABLE", "DROP", "INDEX",
		"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "EXPLAIN",
		"DATE", "INTERVAL", "DAY", "MONTH", "YEAR", "PARTITION", "HASH",
		"RANGE", "REPLICATED", "COLUMNAR", "CLUSTER", "USING", "BTREE",
		"TRUE", "FALSE", "ANALYZE", "ALL", "ANY", "SOME", "UNION",
		"EXTRACT", "SUBSTRING", "FOR", "COMMIT", "ROLLBACK", "BEGIN", "ROWS", "REORGANIZE",
	} {
		keywords[k] = true
	}
}

// Lex tokenizes SQL text.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string at %d", start)
				}
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.') {
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, Token{Kind: TokKeyword, Text: upper, Pos: start})
			} else {
				// A name is canonical from here on: every later lookup of a
				// table, column or alias is an exact match.
				toks = append(toks, Token{Kind: TokIdent, Text: strings.ToLower(word), Pos: start})
			}
		case c == '?':
			toks = append(toks, Token{Kind: TokParam, Text: "?", Pos: i})
			i++
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, Token{Kind: TokOp, Text: two, Pos: start})
				i += 2
			default:
				switch c {
				case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
					toks = append(toks, Token{Kind: TokOp, Text: string(c), Pos: start})
					i++
				default:
					return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
				}
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

package spl

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"streams/internal/vm"
)

// The list builtins scan by hand to avoid building intermediate slices;
// these tests hold them to the library functions they replaced.

var scanInputs = []string{
	"", " ", "a", " a ", "a b", "a  b\t\nc", "uid=0 euid=1", " xy z", "é è  ê", "a\x01b \xffc", "\xc3 \xc3",
}

func TestNextFieldMatchesStringsFields(t *testing.T) {
	for _, s := range scanInputs {
		var got []string
		for tok, rest := nextField(s); tok != ""; tok, rest = nextField(rest) {
			got = append(got, tok)
		}
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("fields of %q: got %q, want %q", s, got, want)
		}
	}
}

func TestTokenize(t *testing.T) {
	for _, s := range append(scanInputs, ",a,,b,", ";;", "a;b,c") {
		for _, delims := range []string{" ", ",", ";,", "é", ""} {
			isDelim := func(r rune) bool { return strings.ContainsRune(delims, r) }
			for _, keep := range []bool{false, true} {
				want := strings.FieldsFunc(s, isDelim)
				if keep {
					// Every delimiter ends a token, empty or not.
					want = nil
					start := 0
					for i := 0; i < len(s); {
						r, w := utf8.DecodeRuneInString(s[i:])
						if isDelim(r) {
							want = append(want, s[start:i])
							start = i + w
						}
						i += w
					}
					want = append(want, s[start:])
				}
				var a vm.Arena
				got := a.Strs(tokenize(&a, []vm.Val{{S: s}, {S: delims}, {I: b2iVal(keep)}}))
				if !slices.Equal(got, want) {
					t.Errorf("tokenize(%q, %q, %v) = %q, want %q", s, delims, keep, got, want)
				}
			}
		}
	}
}

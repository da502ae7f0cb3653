package parser

import "testing"

// FuzzParse holds the one decoder of statement text to two promises: no
// input makes it panic, and whatever it accepts as a SELECT, INSERT,
// UPDATE or DELETE prints (Statement.String) as text it accepts again
// and prints the same. DDL prints only its name, so it gets the first
// half. The seeds are testdata/fuzz/FuzzParse, replayed by plain go test.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		switch stmt.(type) {
		case *Select, *Insert, *Update, *Delete:
		default:
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if twice := again.String(); twice != printed {
			t.Fatalf("%q prints as %q, which prints as %q", src, printed, twice)
		}
	})
}

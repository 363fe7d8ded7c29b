package experiments

import (
	"fmt"
	"io"
)

// Section is one printable part of the evaluation: the name
// cmd/experiment's -exp flag selects it by, and what it prints.
type Section struct {
	Name   string
	Render func(lab *Lab, w io.Writer) error
}

// Sections lists every section in print order. cmd/experiment prints
// them and TestPaperGolden pins what they print, so an experiment cannot
// be in one and miss the other.
var Sections = []Section{
	{"table1", func(lab *Lab, w io.Writer) error { return emit(w)(Table1(lab), nil) }},
	{"fig1", func(lab *Lab, w io.Writer) error { return emit(w)(Figure1(lab, 30), nil) }},
	{"fig2", func(lab *Lab, w io.Writer) error { return emit(w)(Figure23(lab, "DQ")) }},
	{"fig3", func(lab *Lab, w io.Writer) error { return emit(w)(Figure23(lab, "SQ")) }},
	{"fig4", func(lab *Lab, w io.Writer) error { return emit(w)(Figure45(lab, "DQ")) }},
	{"fig5", func(lab *Lab, w io.Writer) error { return emit(w)(Figure45(lab, "SQ")) }},
	{"table2", func(lab *Lab, w io.Writer) error { return emit(w)(Table2(lab)) }},
	{"fig6", func(lab *Lab, w io.Writer) error { return emit(w)(Figure67(lab, "DQ", nil, nil)) }},
	{"fig7", func(lab *Lab, w io.Writer) error { return emit(w)(Figure67(lab, "SQ", nil, nil)) }},
	{"buildtime", func(lab *Lab, w io.Writer) error { return emit(w)(BuildTime(lab), nil) }},
	{"lessons", func(lab *Lab, w io.Writer) error { return emit(w)(Lessons(lab)) }},
	{"comparators", func(lab *Lab, w io.Writer) error { return emit(w)(Comparators(lab)) }},
	{"ablations", func(lab *Lab, w io.Writer) error {
		if err := emit(w)(AblationOverlap(lab)); err != nil {
			return err
		}
		if err := emit(w)(AblationStrategies(lab)); err != nil {
			return err
		}
		if err := emit(w)(AblationNaiveBag(lab, 4000)); err != nil {
			return err
		}
		return emit(w)(AblationNormOutlier(lab))
	}},
}

// renderer is the Render method every experiment result has.
type renderer interface{ Render(w io.Writer) }

// emit returns a printer to w that takes an experiment's (result, error)
// pair directly and ends the result with a blank line.
func emit(w io.Writer) func(renderer, error) error {
	return func(r renderer, err error) error {
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
		return nil
	}
}

// wallf formats a value measured on the wall clock: a build time or a
// ratio of two. Every such value is printed through it, so
// TestPaperGolden masks them all by replacing it.
var wallf = fmt.Sprintf

package harness

import "io"

// Figure is one entry of the figure table: the name cmd/cachepart and
// the golden files know it by, and a run that prints it as the CLI
// does.
type Figure struct {
	Name   string
	Render func(p Params, w io.Writer) error
}

// figure pairs an experiment with its printer.
func figure[R any](name string, run func(Params) (R, error), printer func(io.Writer, R)) Figure {
	return Figure{Name: name, Render: func(p Params, w io.Writer) error {
		r, err := run(p)
		if err != nil {
			return err
		}
		printer(w, r)
		return nil
	}}
}

// Figures returns every figure, in the order `cachepart all` prints
// them.
func Figures() []Figure {
	return []Figure{
		figure("fig4", Fig4, PrintFig4),
		figure("fig5", Fig5, PrintFig5),
		figure("fig6", Fig6, PrintFig6),
		figure("fig9", Fig9, PrintFig9),
		figure("fig10", Fig10, PrintFig10),
		figure("fig11", Fig11, PrintFig11),
		figure("fig12", Fig12, PrintFig12),
		figure("proj", FigProjSweep, PrintProj),
		figure("cosched", FigCoSchedule, PrintCoSchedule),
		figure("adapt", FigAdapt, PrintAdapt),
		figure("chaos", FigChaos, PrintChaos),
		figure("serve", FigServe, PrintServe),
		figure("overload", FigOverload, PrintOverload),
	}
}

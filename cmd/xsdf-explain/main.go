// Command xsdf-explain prints the full scoring breakdown for one target
// label in the corpus: every candidate sense's concept-based score and, per
// context node, the best-matching context sense with its per-measure
// similarity components. A calibration aid:
//
//	xsdf-explain -label book -dataset 5 -d 1
package main

import (
	"flag"
	"fmt"

	"repro/internal/disambig"
	"repro/internal/experiments"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
)

func main() {
	var (
		seed    = flag.Int64("seed", 42, "corpus seed")
		label   = flag.String("label", "", "target label to explain")
		dataset = flag.Int("dataset", 0, "restrict to one dataset (0 = all)")
		radius  = flag.Int("d", 1, "sphere radius")
		limit   = flag.Int("limit", 1, "number of target nodes to explain")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	r := experiments.NewRunner(cfg)
	net := r.Network()
	sim := simmeasure.New(net, simmeasure.EqualWeights())
	edge := simmeasure.New(net, simmeasure.EdgeOnly())
	node := simmeasure.New(net, simmeasure.NodeOnly())
	gloss := simmeasure.New(net, simmeasure.GlossOnly())
	name := func(d semnet.DenseID) semnet.ConceptID {
		id, _ := net.ConceptAt(d)
		return id
	}

	shown := 0
	for i, doc := range r.Docs() {
		if *dataset != 0 && doc.Dataset != *dataset {
			continue
		}
		for _, n := range r.Selected(i) {
			if n.Label != *label || shown >= *limit {
				continue
			}
			shown++
			fmt.Printf("=== %s in %s (gold %s, depth %d)\n", n.Label, doc.Name, n.Gold, n.Depth)
			members := sphere.Sphere(n, *radius)
			voc := sphere.NewDict(net)
			vec := sphere.ContextVector(n, *radius, voc)
			fmt.Printf("sphere (d=%d): ", *radius)
			for _, m := range members {
				if m.Node != n {
					fmt.Printf("%s@%d ", m.Node.Label, m.Dist)
				}
			}
			fmt.Println()
			tokens := n.Tokens
			if len(tokens) == 0 {
				tokens = []string{n.Label}
			}
			for _, t := range tokens {
				for _, sp := range net.SensesDense(t) {
					var total float64
					fmt.Printf("  candidate %-16s", name(sp))
					details := ""
					for _, m := range members {
						if m.Node == n {
							continue
						}
						ctoks := m.Node.Tokens
						if len(ctoks) == 0 {
							ctoks = []string{m.Node.Label}
						}
						var bestV float64
						bestS := sp
						cnt := 0
						var sum float64
						for _, ct := range ctoks {
							senses := net.SensesDense(ct)
							if len(senses) == 0 {
								continue
							}
							b := 0.0
							bs := sp
							for _, sj := range senses {
								if v := sim.SimDense(sp, sj); v > b {
									b, bs = v, sj
								}
							}
							sum += b
							cnt++
							if b > bestV {
								bestV, bestS = b, bs
							}
						}
						if cnt == 0 {
							continue
						}
						avg := sum / float64(cnt)
						w := vec.At(voc, m.Node.Label)
						total += avg * w
						if avg*w > 0.004 && bestS != sp {
							details += fmt.Sprintf("    %-14s via %-16s sim=%.3f w=%.3f (edge=%.2f node=%.2f gloss=%.2f)\n",
								m.Node.Label, name(bestS), avg, w,
								edge.SimDense(sp, bestS),
								node.SimDense(sp, bestS),
								gloss.SimDense(sp, bestS))
						}
					}
					total /= float64(len(members))
					fmt.Printf(" score=%.4f\n%s", total, details)
				}
			}
			dis := disambig.New(net, disambig.Options{Radius: *radius, Method: disambig.ConceptBased, SimWeights: simmeasure.EqualWeights()})
			if s, ok := dis.Node(n); ok {
				fmt.Printf("  -> chosen: %s (%.4f)\n", s.ID(), s.Score)
			}
		}
	}
}

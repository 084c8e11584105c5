// Snapshot support (bfbp.state.v1): the loop predictor serialises every
// table entry; way/set geometry is configuration and is validated on
// load.

package looppred

import "bfbp/internal/state"

// SaveState appends every entry of every way to a snapshot section.
func (p *Predictor) SaveState(e *state.Enc) {
	e.Int(p.ways)
	e.Int(p.sets)
	for w := 0; w < p.ways; w++ {
		for i := range p.banks[w] {
			en := &p.banks[w][i]
			e.U32(en.tag)
			e.U32(en.nbIter)
			e.U32(en.curIter)
			e.U8(en.conf)
			e.U8(en.age)
			e.Bool(en.dir)
			e.Bool(en.valid)
		}
	}
}

// LoadState decodes entries saved by SaveState into p, a fresh
// predictor with the same geometry, checking each field against its
// width.
func (p *Predictor) LoadState(d *state.Dec) {
	if ways, sets := d.Int(), d.Int(); ways != p.ways || sets != p.sets {
		d.Corruptf("loop predictor is %dx%d, snapshot %dx%d", p.ways, p.sets, ways, sets)
		return
	}
	for w := 0; w < p.ways; w++ {
		for i := range p.banks[w] {
			p.banks[w][i] = entry{
				tag:     d.U32(),
				nbIter:  d.U32(),
				curIter: d.U32(),
				conf:    d.U8(),
				age:     d.U8(),
				dir:     d.Bool(),
				valid:   d.Bool(),
			}
			if e := &p.banks[w][i]; e.tag>>tagBits|e.nbIter>>iterBits|e.curIter>>iterBits != 0 || e.conf > confMax {
				d.Corruptf("way %d entry %d: tag, trip count or confidence out of range", w, i)
			}
		}
	}
}

package main

import (
	"fmt"
	"sort"

	tapejoin "repro"
)

// referenceMethod picks the method that re-derives an output: DT-GH,
// or DT-NB when the query itself ran DT-GH.
func referenceMethod(executed string) tapejoin.Method {
	if executed == string(tapejoin.DTGH) {
		return tapejoin.DTNB
	}
	return tapejoin.DTGH
}

// verifyOutputs checks every recorded full-join hash against the
// reference hash of its inputs, computing each reference once, in
// reference order so references of one input set are computed together.
// reference(ref, method) joins the inputs named by ref with method.
func verifyOutputs(rec *recorder, reference func(ref string, method tapejoin.Method) (uint64, error)) error {
	type key struct {
		ref    string
		method tapejoin.Method
	}
	outs := rec.outputs.all()
	sort.Slice(outs, func(i, j int) bool { return outs[i].ref < outs[j].ref })
	cache := map[key]uint64{}
	for _, out := range outs {
		if out.ref == "" {
			continue
		}
		k := key{out.ref, referenceMethod(out.method)}
		want, ok := cache[k]
		if !ok {
			var err error
			if want, err = reference(k.ref, k.method); err != nil {
				return fmt.Errorf("reference join for %s: %w", out.id, err)
			}
			cache[k] = want
		}
		if out.hash != want {
			rec.markWrong(out.id, fmt.Sprintf("%s output hash %016x, reference %s %016x", out.method, out.hash, k.method, want))
		}
	}
	return nil
}

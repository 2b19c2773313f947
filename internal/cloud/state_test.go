package cloud

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/nn"
	"insitu/internal/transfer"
)

// backwardState lists the backward caches a layer below index stop
// still holds: padded conv inputs, ReLU masks, MaxPool argmax, input and
// weight gradients. The fields are unexported, so they are read by
// reflection; a slice counts while it has capacity.
func backwardState(net *nn.Network, stop int) []string {
	var held []string
	for _, l := range net.Layers[:stop] {
		v := reflect.ValueOf(l).Elem()
		for _, f := range []string{"pad", "mask", "argmax", "dx", "dys", "gW", "gB"} {
			fv := v.FieldByName(f)
			if !fv.IsValid() {
				continue
			}
			if (fv.Kind() == reflect.Slice && fv.Cap() > 0) || (fv.Kind() == reflect.Pointer && !fv.IsNil()) {
				held = append(held, l.Name()+"."+f)
			}
		}
	}
	return held
}

// lockedStop is the lowest layer a CONV-locked update trains.
func lockedStop(net *nn.Network, locked int) int {
	prefixes := transfer.ConvPrefixes(locked)
	net.FreezeLayers(prefixes...)
	defer net.UnfreezeLayers(prefixes...)
	for i, l := range net.Layers {
		for _, p := range l.Params() {
			if !p.Frozen {
				return i
			}
		}
	}
	return len(net.Layers)
}

// The unlocked bootstrap leaves backward caches in every layer; one
// locked Update must release them below each net's stop layer, where no
// Backward runs any more.
func TestLockedUpdateKeepsNoStateBelowStop(t *testing.T) {
	gen := dataset.NewGenerator(3, 9)
	draw := func(n int) []dataset.Sample { return gen.MixedSet(n, 0.6, 0.7) }
	s := testServer()
	s.Bootstrap(draw(24))
	const locked = 3
	nets := []*nn.Network{s.infer, s.jig}
	for _, net := range nets {
		// backwardState skips a field name no layer has, so demand that
		// the convs' kept input is among what it found.
		held := backwardState(net, lockedStop(net, locked))
		if !slices.ContainsFunc(held, func(f string) bool { return strings.HasSuffix(f, ".pad") }) {
			t.Fatalf("%s: the bootstrap left no conv input to release (held %v)", net.Name, held)
		}
	}
	s.Update(draw(16), draw(12), locked, false)
	for _, net := range nets {
		if held := backwardState(net, lockedStop(net, locked)); len(held) > 0 {
			t.Errorf("%s: after a locked update, layers below the stop still hold %v", net.Name, held)
		}
	}
}

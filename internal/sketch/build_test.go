package sketch

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
)

func saveBytes(t *testing.T, p *DatasetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildProfileBytesPinned holds BuildProfile to the bytes it saved
// to before the three builders became one (digests generated on the
// parent of that change; the wide row on the parent of the tiled
// projection kernel; every row re-pinned when the per-column value
// reservoir left the wire, each to the bytes its predecessor's store
// saves to once loaded): the demo datasets at their default sizes as
// the server builds them, one synthetic shape large enough to compact
// the quantile sketches and overflow the row sample, that shape with
// no rows, a wider one, and the extension by a 10-row batch. Any worker
// count is the same build, and saves to the same bytes (the worker
// count is not written).
func TestBuildProfileBytesPinned(t *testing.T) {
	digest := func(p *DatasetProfile) string {
		return fmt.Sprintf("%x", sha256.Sum256(saveBytes(t, p)))
	}
	cfg := ProfileConfig{Seed: 42, Spearman: true}
	scalable := datagen.Scalable(datagen.ScalableConfig{Rows: 3000, NumericCols: 6, CatCols: 2, Seed: 7})
	empty, err := scalable.FilterRows(make([]bool, scalable.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	// Wide and long enough that the projection passes run as column
	// chunks at two or more workers.
	wide := datagen.Scalable(datagen.ScalableConfig{Rows: 3000, NumericCols: 40, CatCols: 2, Seed: 7})
	for _, c := range []struct {
		name string
		f    *frame.Frame
		want string
	}{
		{"oecd", datagen.OECD(0, 42), "5d53fb18fdc0059032150b039b5198f31c6a27b99f833ec0126a842a09b92a51"},
		{"parkinson", datagen.Parkinson(0, 42), "ad138bf3544c3c23fbac24f966812701a84ca67a161ab839e64b8b9f52fa8058"},
		{"imdb", datagen.IMDB(0, 42), "742302eb35e96a8d4445166e2516751483356957fdb1491d109b5e989604651f"},
		{"scalable", scalable, "6d7a98802032fbc5293d68e9d0139b20746b4967281e7528116f9fe56e9395c0"},
		{"empty", empty, "73e4860f41ecb3ea8178df6dd83e030b30e22a12ccb7d9ad11244f45c38f7e09"},
		{"wide", wide, "42dc283fb5da3513065ac13ccb94671d9e3de288308395abdc499bc24acf5405"},
	} {
		if got := digest(BuildProfile(c.f, cfg)); got != c.want {
			t.Errorf("%s: BuildProfile saves to %s, pinned %s", c.name, got, c.want)
		}
		for _, workers := range []int{-1, 2, 3} {
			par := cfg
			par.Workers = workers
			if got := digest(BuildProfile(c.f, par)); got != c.want {
				t.Errorf("%s: workers=%d saves to %s, pinned %s", c.name, workers, got, c.want)
			}
		}
	}

	grown, err := scalable.AppendRows(rowsOf(scalable, 0, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	const wantExt = "347939a840b96120e8c837afd10f7e11ecf97e8d2d8f099697de3be12f719d1d"
	for _, workers := range []int{0, -1, 2, 3} {
		par := cfg
		par.Workers = workers
		ext, err := BuildProfile(scalable, par).Extend(grown)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(ext); got != wantExt {
			t.Errorf("extend on workers=%d: saves to %s, pinned %s", workers, got, wantExt)
		}
	}
}

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
// projection kernel): the demo datasets at their default sizes as
// the server builds them, one synthetic shape large enough to compact
// the quantile sketches and overflow both samples, that shape with no
// rows, a wider one, and the extension by a 10-row batch. Any worker
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
		{"oecd", datagen.OECD(0, 42), "1c22db5e992bc45ce88d678334cb21466b83d25aedc5096a6b09fe2444359a87"},
		{"parkinson", datagen.Parkinson(0, 42), "5614510c16088c3aacb7435a16236a989cce17be97b62320e61c5e90e123de1c"},
		{"imdb", datagen.IMDB(0, 42), "eb90275f152ae424f3d2f55e098219a958edca5133de3a7ecdf5baa6bfc6b513"},
		{"scalable", scalable, "bd7fb5114bf70d69883c927d9d40ef0e535436c5f65e620e2ea46eb9cffbdddf"},
		{"empty", empty, "a0d6a0069d8da822942d35be1150af76505fda64d7a36170a43a7b3c907ebb54"},
		{"wide", wide, "2b1d6a74525b4d2fa080ae64438f4b536c2ed1455030a07f17953083b84ce528"},
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
	const wantExt = "8ad138e57dbf5563b0ab5fdf8709c2ef8cd9ad3f8566873cf3a81a5a900cc911"
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

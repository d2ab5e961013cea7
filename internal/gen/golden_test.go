package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"dasc/internal/model"
)

// generatorGoldens pins every worker and task field of generated instances:
// the paper's default configuration at scale 0.1, fig10's largest point
// (seed 4 is perfbench paper-sim's first instance for seed 1), the
// extensions that draw from the stream differently (Zipf skills, hotspots,
// task weights), Table VI's small scale and the full Meetup substitute.
// Every EXPERIMENTS number and every sim and server golden rests on these
// instances; a generator change that moves one draw moves a digest here.
var generatorGoldens = map[string]struct {
	gen  func() (*model.Instance, error)
	want string
}{
	"synthetic/scale0.1/seed1": {func() (*model.Instance, error) { return syntheticSeed(DefaultSynthetic().Scale(0.1), 1) }, "75c403c5352b9927778740aa87f9ed87f20795ba7e36479d2dbc08bd6d881ff7"},
	"synthetic/scale0.1/seed2": {func() (*model.Instance, error) { return syntheticSeed(DefaultSynthetic().Scale(0.1), 2) }, "67a22ab7450c5da9b6d793ba7f4d19240a87722b43084346d18624918c1f8776"},
	"synthetic/scale0.1/seed3": {func() (*model.Instance, error) { return syntheticSeed(DefaultSynthetic().Scale(0.1), 3) }, "6f97d7d1a90678e9d12b2f5ab48d2b38a3950ebb7283feccd92af41b628c9769"},
	"synthetic/fig10max/seed4": {func() (*model.Instance, error) {
		c := DefaultSynthetic()
		c.Tasks = 8000
		return syntheticSeed(c, 4)
	}, "b1caa37428a18d84fd21b3c2fe6b6fccb7c617c051e1b7a2ec7da1afcff94e35"},
	"synthetic/zipf1.5": {func() (*model.Instance, error) {
		c := DefaultSynthetic().Scale(0.1)
		c.ZipfSkills = 1.5
		return Synthetic(c)
	}, "98d8f5a0cd2ab8468b47538bd5c65158d3809e70704cc515ed8dd1614412c123"},
	"synthetic/hotspots5": {func() (*model.Instance, error) {
		c := DefaultSynthetic().Scale(0.1)
		c.Hotspots = 5
		return Synthetic(c)
	}, "637aa10ab08e1551c68ed299107c5bce7790f6f3625c920c29962d8ec332ed40"},
	"synthetic/weight1-3": {func() (*model.Instance, error) {
		c := DefaultSynthetic().Scale(0.1)
		c.TaskWeight = R(1, 3)
		return Synthetic(c)
	}, "0ca7006ee7d0369b812819cf8aa699f3a3f22bee02b8e319521e091ccb69727c"},
	"synthetic/smallscale": {func() (*model.Instance, error) { return Synthetic(SmallScale()) }, "e33461cfa19a1bf2fa61e056421c7786d85acc0cc5ce1e8ebc068fb553683d17"},
	"meetup/default":       {func() (*model.Instance, error) { return Meetup(DefaultMeetup()) }, "d8d6f1d8b0f5eec6aa5bd37751252cd325eda7b55c4340461618820bb97c976e"},
}

func syntheticSeed(c SyntheticConfig, seed int64) (*model.Instance, error) {
	c.Seed = seed
	return Synthetic(c)
}

func TestGeneratorGoldens(t *testing.T) {
	for name, g := range generatorGoldens {
		t.Run(name, func(t *testing.T) {
			in, err := g.gen()
			if err != nil {
				t.Fatal(err)
			}
			if got := instanceDigest(in); got != g.want {
				t.Errorf("%s instance digest\n got: %s\nwant: %s", name, got, g.want)
			}
		})
	}
}

// instanceDigest hashes every worker and task field, floats by their bits.
func instanceDigest(in *model.Instance) string {
	h := sha256.New()
	putU64(h, uint64(in.SkillUniverse))
	putU64(h, uint64(len(in.Workers)))
	for i := range in.Workers {
		w := &in.Workers[i]
		putU64(h, uint64(w.ID))
		for _, f := range []float64{w.Loc.X, w.Loc.Y, w.Start, w.Wait, w.Velocity, w.MaxDist} {
			putU64(h, math.Float64bits(f))
		}
		skills := w.Skills.Skills()
		putU64(h, uint64(len(skills)))
		for _, s := range skills {
			putU64(h, uint64(s))
		}
	}
	putU64(h, uint64(len(in.Tasks)))
	for i := range in.Tasks {
		tk := &in.Tasks[i]
		putU64(h, uint64(tk.ID))
		for _, f := range []float64{tk.Loc.X, tk.Loc.Y, tk.Start, tk.Wait, tk.Weight} {
			putU64(h, math.Float64bits(f))
		}
		putU64(h, uint64(tk.Requires))
		putU64(h, uint64(len(tk.Deps)))
		for _, d := range tk.Deps {
			putU64(h, uint64(d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

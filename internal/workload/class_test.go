package workload_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// staticDigest is workload.StaticDigest over the 18 bench profiles, in
// bench.Names order, as the per-draw sampler built them before the class
// tables. A class draw that picked differently or consumed the structure
// RNG differently would change it.
var staticDigest = map[string]string{
	"gzip":    "e6983dd95c3c0ac78397001111948ebec47a5dbb4d44ffd80c1538657c331cc0",
	"wupwise": "f8b07b2dad7390f15a90c29ae74198c8a2ac9e372f9151920b8a9b384d813023",
	"vpr":     "ee8e997d58a490b4a9a333376f281ba62805626431a98b909b492a8124faf5c4",
	"gcc":     "ebad9060ee160bcc196f57b0b2dd66f7e9655536649089768bdda22aea63baf0",
	"mesa":    "34849e7d1fa2b0cde45c9f927d3b9af9bbaa30b21003b18cf8729918e2091927",
	"art":     "9bf54ca26afef94f4c119be88f4a01e4d3eec3136c5ffa3dbffb37bf72a328c1",
	"equake":  "1204328b5bc08f880be6f048e82ce8a666d213ea46aa3ade554e8a00f661ba1b",
	"crafty":  "6cee8c5690706ca6a39852ea9a103733be0522a0988210e7bc0238fb928240a6",
	"facerec": "46b12a242d652a8c19104b45c534dee98c51a50fcae8ed1be15235c0cbcdd611",
	"fma3d":   "2bba9cc901ff288f723a43a8e47f50b5aaf9cab46c67703bc4440f320eaa2620",
	"parser":  "928cc896fe5f7c63e1aa539513e92607a9123c7e7bf332287bc975e9fcaf70de",
	"eon":     "e20ec33e3fcf20e87533f524e6f0c22bb93360d7c70a12156d521feace393953",
	"perlbmk": "6c7b3d097fdf0cb66dfd5850aee7c36e74107f5b86a980a221bcc8d61d9916ca",
	"gap":     "90126d83ccad06455b63a25b1a28461dd34f25f447fc2211795b26f07e2c6b25",
	"vortex":  "6485955b29416fd45ec47e0ed5525d0673574719c2327596eba46b1b1e7017d1",
	"bzip2":   "b114d4315ccdaf61d659b22b42aea5b520aa1563fc434210b921c9e99943dad0",
	"twolf":   "9a024eef8c12f2830a5c2d1cf67e1e2d82b1250aae3ecc140a331f4d5ba733b4",
	"apsi":    "68f486bf529d7f8dad67f4f74138e24d1626ec68af73970beea2833f2be21ff8",
}

// suite returns the 18 benchmark profiles in table order.
func suite(t *testing.T) []workload.Profile {
	var ps []workload.Profile
	for _, n := range bench.Names() {
		p, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func TestStaticBodiesUnchanged(t *testing.T) {
	for _, p := range suite(t) {
		g, err := workload.NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := workload.StaticDigest(g); got != staticDigest[p.Name] {
			t.Errorf("%s: static bodies digest %s, want %s", p.Name, got, staticDigest[p.Name])
		}
	}
}

// Every phase mix of every profile draws the same classes from its table
// as from the per-draw sampler, with and without control classes, and
// leaves the RNG in the same state.
func TestClassTableMatchesReference(t *testing.T) {
	for _, p := range suite(t) {
		for pi, ph := range p.Phases {
			for _, ctrl := range []bool{true, false} {
				if i := workload.ClassDrawMismatch(ph.Mix, p.Seed+uint64(pi), 100_000, ctrl); i >= 0 {
					t.Errorf("%s phase %d ctrl=%v: draw %d differs", p.Name, pi, ctrl, i)
				}
			}
		}
	}
}

// 10^5 WrongPath calls per profile return exactly the ops the pre-table
// WrongPath returns. Phases are cut to 64 instructions and a correct-path
// op is drawn between wrong-path ops, so multi-phase profiles (art)
// alternate phases throughout.
func TestWrongPathMatchesReference(t *testing.T) {
	for _, p := range suite(t) {
		p.Phases = append([]workload.Phase(nil), p.Phases...)
		for i := range p.Phases {
			p.Phases[i].Insts = 64
		}
		g, err := workload.NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := workload.WrongPathRef(g)
		pc := uint64(0x1000)
		for i := 0; i < 100_000; i++ {
			got, want := g.WrongPath(pc), ref(pc)
			if got != want {
				t.Fatalf("%s: call %d: WrongPath = %+v, reference %+v", p.Name, i, got, want)
			}
			pc += 4
			g.Next()
		}
	}
}

func TestZeroAllocWrongPath(t *testing.T) {
	p, err := bench.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x1000)
	if n := testing.AllocsPerRun(1000, func() {
		g.WrongPath(pc)
		pc += 4
	}); n != 0 {
		t.Errorf("WrongPath allocates %v times per call, want 0", n)
	}
}

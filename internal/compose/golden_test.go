package compose

import (
	"hash/crc32"
	"testing"
)

// goldenOutput pins what every stage kind, and every plan TestDifferentialPlans
// runs, makes of one seeded input (diffFrames(1, 400), shaped by diffInput for
// the kinds that only accept their counterpart's output): the CRC-32 and
// length of the concatenated output frames, end-of-stream flush included.
// The differential tests prove the two entry points agree with each other;
// this proves a rewrite of a stage body still emits the same bytes.
var goldenOutput = map[string]struct {
	crc uint32
	n   int
}{
	"counting,checksum,null,null":                     {0x32a19678, 137420},
	"fec-encode=6/4,fec-decode":                       {0xc3dfab7b, 123366},
	"fec-decode,fec-encode=6/4":                       {0xbf6921f1, 207240},
	"compress=6,decompress":                           {0x32a19678, 137420},
	"thin=3,fec-encode=5/3":                           {0x48d80292, 79384},
	"arq,replay=8,counting":                           {0x32a19678, 137420},
	"transcode=2,mono,compress":                       {0xe89f79e2, 54153},
	"null,fec-encode=12/8,checksum,thin=2":            {0x0069479c, 145842},
	"jitter=1,delay=1ms,ratelimit=100000000,counting": {0xeb3a0137, 137420},
	"arq":                 {0x32a19678, 137420},
	"compress":            {0x21ca6c1a, 120029},
	"compress=-2":         {0x10478987, 132233},
	"compress=0":          {0xd8e2afe5, 141020},
	"compress=1":          {0xec551513, 120527},
	"compress=9":          {0x21ca6c1a, 120029},
	"checksum":            {0x32a19678, 137420},
	"compress=6":          {0x21ca6c1a, 120029},
	"counting":            {0x32a19678, 137420},
	"decompress":          {0x32a19678, 137420},
	"delay=1ms":           {0x32a19678, 137420},
	"fec-decode":          {0x99295283, 118076},
	"fec-encode=6/4":      {0xf7990a61, 218364},
	"jitter=1":            {0xeb3a0137, 137420},
	"mono":                {0x6792e36e, 80777},
	"null":                {0x32a19678, 137420},
	"ratelimit=100000000": {0x32a19678, 137420},
	"replay=8":            {0x32a19678, 137420},
	"thin=3":              {0xf87d48d4, 54380},
	"transcode=2":         {0x530a19fb, 80984},
}

func TestGoldenOutput(t *testing.T) {
	// Every flate level family, not only diffArgs' compress=6.
	specs := append([]string{"compress", "compress=-2", "compress=0", "compress=1", "compress=9"}, diffPlans...)
	for _, kind := range Default().Kinds() {
		if d, _ := Default().Lookup(kind); d.Marker {
			continue
		}
		st, err := Default().CanonStage(kind, diffArgs[kind])
		if err != nil {
			t.Fatalf("kind %q needs an argument in diffArgs: %v", kind, err)
		}
		specs = append(specs, st.String())
	}
	for _, spec := range specs {
		out := runFrames(t, spec, diffInput(t, spec, diffFrames(1, 400)))
		crc, n := crc32.ChecksumIEEE(out), len(out)
		t.Logf("%q: {0x%08x, %d},", spec, crc, n)
		want, ok := goldenOutput[spec]
		if !ok {
			t.Errorf("%q has no golden output: {0x%08x, %d}", spec, crc, n)
			continue
		}
		if crc != want.crc || n != want.n {
			t.Errorf("%q: output CRC-32 0x%08x over %d bytes, want 0x%08x over %d", spec, crc, n, want.crc, want.n)
		}
	}
}

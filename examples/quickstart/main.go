// Quickstart: build a RAPIDware proxy around an in-memory stream, start it as
// a "null proxy", then insert and remove filters while data is flowing — the
// paper's core capability in ~60 lines. Every change is a plan rewrite that
// compose.Live splices into the running chain.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
)

// slowReader paces the stream so the reconfigurations below happen while data
// is genuinely in flight.
type slowReader struct {
	r io.Reader
}

func (s slowReader) Read(p []byte) (int, error) {
	if len(p) > 512 {
		p = p[:512]
	}
	time.Sleep(200 * time.Microsecond)
	return s.r.Read(p)
}

func main() {
	// A stream of numbered lines stands in for the live data stream.
	var source bytes.Buffer
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&source, "line-%06d\n", i)
	}
	total := source.Len()

	// 1. Assemble the null proxy: input endpoint -> output endpoint, with an
	//    empty plan attached. The lines are a raw byte stream: each read of
	//    the source enters the chain as one buffer, which the pass-through
	//    stages below accept as they do packet frames.
	chain := filter.NewChain("quickstart")
	var sink bytes.Buffer // written by the chain, read once it is done
	for _, s := range []filter.Stage{
		endpoint.NewReader("source", slowReader{&source}),
		endpoint.NewWriter("sink", &sink),
	} {
		if err := chain.Append(s); err != nil {
			log.Fatal(err)
		}
	}
	live, err := compose.Attach(chain, compose.Default(), compose.Env{}, compose.ModeChain, compose.Plan{})
	if err != nil {
		log.Fatal(err)
	}
	if err := chain.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("started null proxy:", strings.Join(chain.Names(), " -> "))

	// 2. While the stream flows, recompose it: insert a counting filter,
	//    then a checksum filter after it. Stages both plans share keep their
	//    running instance; each rewrite is one live splice.
	recompose := func(spec string) {
		plan, err := compose.Parse(spec, compose.ModeChain)
		if err != nil {
			log.Fatal(err)
		}
		if err := live.Recompose(plan); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recomposed live:    %s\n", strings.Join(chain.Names(), " -> "))
	}
	recompose("counting")
	counter := live.Instance("counting").(*filter.CountingFilter)
	recompose("counting,checksum")

	// 3. Let some traffic flow through the new filters, then remove the
	//    counter again, still without stopping the stream.
	time.Sleep(50 * time.Millisecond)
	recompose("checksum")

	// 4. Wait for the stream to drain and report.
	if err := chain.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered %d/%d bytes, filter saw %d bytes, final plan %q\n",
		sink.Len(), total, counter.Bytes(), live.String())
}

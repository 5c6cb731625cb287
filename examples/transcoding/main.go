// Transcoding example: the bandwidth-reduction proxy duties the paper lists
// for resource-limited mobile hosts. A stereo audio stream is passed through
// a chain of transcoding filters (stereo→mono, 2x downsample, DEFLATE) and the
// resulting bandwidth is compared with the original — the kind of pipeline a
// responder raplet would assemble for a palmtop on a slow link.
package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
	"rapidware/internal/transcode"
)

func main() {
	format := audio.PaperFormat()
	pcm, err := audio.GenerateSpeechLike(format, 20*time.Second, 7)
	if err != nil {
		log.Fatal(err)
	}
	packetizer, err := audio.NewPacketizer(format, 20*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	payloads := packetizer.Split(pcm)

	// Build the transcoding chain: source -> mono -> downsample -> compress -> sink.
	idx := 0
	src := endpoint.NewPacketSource("audio-source", func() (*packet.Packet, error) {
		if idx >= len(payloads) {
			return nil, io.EOF
		}
		p := &packet.Packet{Seq: uint64(idx), Kind: packet.KindData, Payload: payloads[idx]}
		idx++
		return p, nil
	})
	mono, err := transcode.NewMonoFilter("stereo-to-mono", format)
	if err != nil {
		log.Fatal(err)
	}
	monoFormat := audio.Format{SampleRate: format.SampleRate, Channels: 1, BitsPerSample: 8}
	down, err := transcode.NewDownsampleFilter("downsample-2x", monoFormat, 2)
	if err != nil {
		log.Fatal(err)
	}
	compress, err := transcode.NewCompressFilter("deflate", 6)
	if err != nil {
		log.Fatal(err)
	}

	// The sink runs on the chain's goroutine; its counts are read once the
	// chain is done.
	outBytes, outPackets := 0, 0
	sink := endpoint.NewPacketSink("palmtop", func(p *packet.Packet) error {
		outBytes += len(p.Payload)
		outPackets++
		return nil
	})

	chain := filter.NewChain("transcoding-proxy")
	for _, s := range []filter.Stage{src, mono, down, compress, sink} {
		if err := chain.Append(s); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("transcoding proxy chain:", chain.Names())
	if err := chain.Start(); err != nil {
		log.Fatal(err)
	}
	if err := chain.Wait(); err != nil {
		log.Fatal(err)
	}

	inBytes := len(pcm)
	fmt.Printf("input : %7d bytes (%d packets, %s)\n", inBytes, len(payloads), format)
	fmt.Printf("output: %7d bytes (%d packets) after mono + 2x downsample + deflate\n", outBytes, outPackets)
	fmt.Printf("bandwidth reduction: %.1fx (%.1f%% of the original)\n",
		float64(inBytes)/float64(outBytes), float64(outBytes)/float64(inBytes)*100)
}

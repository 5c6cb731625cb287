// FEC audio example: reproduce the paper's Figure 6/7 scenario — an audio
// stream is FEC(6,4)-encoded at the proxy, multicast over a simulated 2 Mbps
// wireless LAN to three laptops at different distances, and decoded at each
// receiver. The output is the raw vs reconstructed receipt rate per receiver,
// the quantity plotted in Figure 7.
package main

import (
	"fmt"
	"log"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/experiment"
	"rapidware/internal/fec"
)

func main() {
	format := audio.PaperFormat()
	pcm, err := audio.GenerateSpeechLike(format, 30*time.Second, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %.0f s of %s audio (%d bytes)\n\n",
		format.Duration(len(pcm)).Seconds(), format, len(pcm))

	cfg := experiment.AudioProxyConfig{
		Format: format,
		FEC:    fec.Params{K: 4, N: 6},
		Seed:   42,
		Receivers: []experiment.ReceiverConfig{
			{Name: "office (5 m)", DistanceMetres: 5, MeanBurst: 1.2},
			{Name: "hallway (25 m)", DistanceMetres: 25, MeanBurst: 1.2},
			{Name: "conference room (40 m)", DistanceMetres: 40, MeanBurst: 1.5},
		},
	}
	res, err := experiment.RunAudioProxy(cfg, pcm)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("proxy sent %d audio packets (%d total with parity, %.2fx overhead)\n\n",
		res.DataSent, res.TotalSent, res.Overhead)
	fmt.Printf("%-25s %-12s %-15s %-12s\n", "receiver", "%received", "%reconstructed", "audio-complete")
	for _, rx := range res.Receivers {
		fmt.Printf("%-25s %-12.2f %-15.2f %-12.2f\n",
			rx.Name, rx.ReceivedRate()*100, rx.ReconstructedRate()*100, rx.Audio.Completeness()*100)
	}

	fmt.Println("\nwindowed trace for the 25 m receiver (Figure 7 series):")
	fmt.Print(res.Receivers[1].Trace.FormatSeries(200))
}

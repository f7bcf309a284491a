// Client: drive a running nanobenchd through the typed client package —
// a synchronous /v1/run, then a sweep submitted as an asynchronous job
// whose progress is streamed while the result is fetched by id. Start
// the server first:
//
//	go run nanobench/cmd/nanobenchd -addr :8080 &
//	go run nanobench/examples/client -addr localhost:8080
//
// The wire schema underneath is documented in docs/API.md; the client
// package wraps it so nothing here touches net/http directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"nanobench"
	"nanobench/client"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "nanobenchd address")
	flag.Parse()
	ctx := context.Background()
	c := client.New("http://" + *addr)

	// One config, addressed to the default Skylake/kernel session.
	run, err := c.Run(ctx, "", "", nanobench.Config{
		Code:          nanobench.MustAsm("mov R14, [R14]"),
		CodeInit:      nanobench.MustAsm("mov [R14], R14"),
		WarmUpCount:   1,
		NMeasurements: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("/v1/run on %s (%s):\n%s\n", run.CPU, run.Mode, run.Result)

	// The same 2×3 sweep as docs/API.md, submitted as an async job: the
	// server queues it and evaluates it exactly as /v1/sweep would.
	sw := nanobench.NewSweep(nanobench.Config{NMeasurements: 3}).
		Asm("add rax, rbx", "imul rax, rbx").
		Unroll(10, 100, 1000)
	job, err := c.SubmitSweep(ctx, "", "", sw)
	if err != nil {
		if client.IsCode(err, "queue_full") {
			log.Fatalf("admission queue full, retry after the server's hint: %v", err)
		}
		log.Fatal(err)
	}
	fmt.Printf("submitted job %s (%s)\n", job.ID, job.Submitted.Kind)

	// Follow the job's state transitions live while it runs.
	err = job.Stream(ctx, func(s client.JobStatus) error {
		fmt.Printf("  %s: %d/%d done (%d cache hits)\n",
			s.State, s.Progress.Completed, s.Progress.Total, s.Progress.CacheHits)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The finished job's result is byte-identical to the synchronous
	// /v1/sweep response; WaitSweep long-polls and decodes it.
	sweep, err := job.WaitSweep(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s result (%d configs):\n", job.ID, sweep.Count)
	for _, it := range sweep.Results {
		if it.Err != nil {
			fmt.Printf("  config %d: %s (%s)\n", it.Index, it.Err.Message, it.Err.Code)
			continue
		}
		cycles, _ := it.Result.Get("Core cycles")
		fmt.Printf("  config %d: %.2f cycles/instr\n", it.Index, cycles)
	}
}

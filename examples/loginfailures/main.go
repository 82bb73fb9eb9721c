// Loginfailures runs the paper's Figure 1 application end to end: a
// mini-SPL program that scans syslog lines for failed ssh logins, with
// @parallel data parallelism and the @threading(model=dynamic)
// annotation, compiled and executed by this repository's runtime.
//
//	go run ./examples/loginfailures
package main

import (
	_ "embed"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"streams"
)

// program (loginfailures.spl) is the paper's Figure 1 composite plus
// the Main that invokes it (§2.2), with the paper's `values[4]` typo
// corrected to `tokens[4]`.
//
//go:embed loginfailures.spl
var program string

// syntheticMessages fabricates /var/log/messages content: sshd
// authentication failures interleaved with unrelated traffic.
func syntheticMessages(failures int) string {
	var sb strings.Builder
	for i := 0; i < failures; i++ {
		fmt.Fprintf(&sb, "Jun 10 03:03:%02d host1 cron[%d]: (root) CMD (run-parts /etc/cron.hourly)\n", i%60, i)
		fmt.Fprintf(&sb, "Jun 10 03:04:%02d host1 sshd[%d]: pam_unix(sshd:auth): authentication failure; logname= uid=0 euid=0 tty=ssh ruser= rhost=198.51.100.%d user=invader%d\n",
			i%60, 4000+i, i%254+1, i)
		fmt.Fprintf(&sb, "Jun 10 03:05:%02d host1 sshd[%d]: Accepted publickey for deploy from 203.0.113.7\n", i%60, 5000+i)
	}
	return sb.String()
}

func main() {
	const failures = 5000
	logData := syntheticMessages(failures)

	outFile, err := os.CreateTemp("", "failures-*.txt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(outFile.Name())

	prog, err := streams.CompileSPL(program, streams.SPLOptions{
		// The paper reads the real /var/log/messages; feed the synthetic
		// log instead so the example is hermetic.
		ReaderFor: func(string) (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader(logData)), nil
		},
		WriterFor: func(string) (io.WriteCloser, error) { return outFile, nil },
	})
	if err != nil {
		log.Fatal(err)
	}
	model, _, _ := prog.Threading()
	st := prog.Graph().Stats()
	fmt.Printf("compiled: %d operators, %d streams; @threading(model=%s)\n",
		st.Nodes, st.Streams, model)

	job, err := prog.Run(streams.RunConfig{Threads: 3})
	if err != nil {
		log.Fatal(err)
	}
	job.Wait()

	fmt.Printf("scanned %d syslog lines, recorded %d login failures\n",
		3*failures, prog.SinkCounts()["Sink"])

	// Show a couple of Failure records (time, uid, euid, tty, rhost, user).
	data, err := os.ReadFile(outFile.Name())
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, l := range lines[:min(3, len(lines))] {
		fmt.Printf("  %s\n", l)
	}
	fmt.Printf("  ... %d more\n", len(lines)-3)
}

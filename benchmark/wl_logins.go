package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"streams/internal/pe"
	"streams/internal/spl"
)

// loginsProgram is the paper's Figure 1 composite plus the Main that
// invokes it (§2.2), as in examples/loginfailures: @parallel widths 7
// and 4, string and list logic the SPL compiler cannot yet lower to
// bytecode.
const loginsProgram = `
composite LoginFailures(output Failures) {
  type
    LogLine = timestamp time, rstring hostname, rstring srvc, rstring msg;
    Failure = timestamp time, rstring uid, rstring euid,
              rstring tty, rstring rhost, rstring user;
  graph
    stream<rstring line> Lines = FileSource() {
      param format: line;
            file: "/var/log/messages";
    }
    @parallel(width=7)
    stream<LogLine> ParsedLines = Custom(Lines) {
      logic onTuple Lines: {
        list<rstring> tokens = tokenize(line, " ", false);
        rstring date = makeDate(tokens[1]);
        rstring time = makeTime(tokens[2]);
        timestamp t = makeTimestamp(date, time);
        submit({time = t, hostname = tokens[3],
                srvc = tokens[4], msg = flatten(tokens[5:])},
               ParsedLines);
      }
    }
    stream<LogLine> FailuresRaw = Filter(ParsedLines) {
      param filter:
        findFirst(srvc, "sshd", 0) != -1 &&
        findFirst(msg, "authentication failure", 0) != -1;
    }
    @parallel(width=4)
    stream<Failure> Failures = Custom(FailuresRaw) {
      logic onTuple FailuresRaw: {
        list<rstring> tokens = parseMsg(msg);
        submit({time = FailuresRaw.time,
                uid = tokens[0], euid = tokens[1],
                tty = tokens[2], rhost = tokens[3],
                user = size(tokens) == 5 ? tokens[4] : ""},
               Failures);
      }
    }
}

@threading(model=dynamic)
composite Main {
  graph
    stream<Failure> Failures = LoginFailures() {}
    () as Sink = FileSink(Failures) {
      param file: "failures.txt";
    }
}
`

// syslogLines fabricates /var/log/messages content from the seed: sshd
// authentication failures (with and without a user= field) interleaved
// with traffic the Filter must drop — other services, sshd lines that
// are not failures, and failures of services that are not sshd.
func syslogLines(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.Grow(n * 112)
	for i := 0; i < n; i++ {
		day, hh, mm, ss := 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60)
		host := 1 + rng.Intn(16)
		pid := 1000 + rng.Intn(60000)
		fmt.Fprintf(&sb, "Jun %d %02d:%02d:%02d host%d ", day, hh, mm, ss, host)
		switch k := rng.Intn(12); {
		case k < 3:
			fmt.Fprintf(&sb, "sshd[%d]: pam_unix(sshd:auth): authentication failure; logname= uid=%d euid=%d tty=ssh ruser= rhost=198.51.100.%d user=invader%d\n",
				pid, rng.Intn(3), rng.Intn(3), 1+rng.Intn(254), rng.Intn(100000))
		case k < 4:
			fmt.Fprintf(&sb, "sshd[%d]: pam_unix(sshd:auth): authentication failure; logname= uid=%d euid=%d tty=ssh ruser= rhost=203.0.113.%d\n",
				pid, rng.Intn(3), rng.Intn(3), 1+rng.Intn(254))
		case k < 7:
			fmt.Fprintf(&sb, "cron[%d]: (root) CMD (run-parts /etc/cron.hourly)\n", pid)
		case k < 10:
			fmt.Fprintf(&sb, "sshd[%d]: Accepted publickey for deploy from 203.0.113.%d port %d\n", pid, 1+rng.Intn(254), 1024+rng.Intn(60000))
		default:
			fmt.Fprintf(&sb, "su[%d]: pam_unix(su:auth): authentication failure; logname=ops uid=%d euid=0 tty=pts/%d ruser=ops rhost= user=root\n",
				pid, 1000+rng.Intn(50), rng.Intn(8))
		}
	}
	return sb.String()
}

// referenceFailures is the oracle: a plain-Go parse of the same lines,
// sharing no code with internal/spl. It returns the Failure records the
// program must write, in input order.
func referenceFailures(log string) []string {
	var out []string
	for _, line := range strings.Split(log, "\n") {
		tok := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' })
		if len(tok) < 6 {
			continue
		}
		srvc, msg := tok[4], strings.Join(tok[5:], " ")
		if !strings.Contains(srvc, "sshd") || !strings.Contains(msg, "authentication failure") {
			continue
		}
		kv := map[string]string{}
		for _, f := range tok[5:] {
			if i := strings.IndexByte(f, '='); i > 0 {
				kv[f[:i]] = f[i+1:]
			}
		}
		user := kv["user"]
		out = append(out, fmt.Sprintf("%s %s,%s,%s,%s,%s,%s", tok[1], tok[2], kv["uid"], kv["euid"], kv["tty"], kv["rhost"], user))
	}
	return out
}

type loginsWorkload struct {
	lines int
	log   string
	want  lineDigest
}

func newLoginsWorkload(seed int64, lines int) *loginsWorkload {
	w := &loginsWorkload{lines: lines, log: syslogLines(seed, lines)}
	for _, rec := range referenceFailures(w.log) {
		w.want.addLine(rec)
	}
	return w
}

func (w *loginsWorkload) inputs() uint64 { return uint64(w.lines) }

func (w *loginsWorkload) build() (*closedJob, error) {
	got := &digestWriter{sink: newProgress(w.want.count)}
	c, err := spl.Compile(loginsProgram, spl.Options{
		ReaderFor: func(string) (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(w.log)), nil },
		WriterFor: func(string) (io.WriteCloser, error) { return got, nil },
	})
	if err != nil {
		return nil, err
	}
	return &closedJob{
		g:    c.Graph,
		sink: got.sink,
		check: func(*pe.PE) (uint64, error) {
			if err := c.Sinks["Sink"].Err(); err != nil {
				return 0, err
			}
			return w.want.diff(got.lineDigest), nil
		},
	}, nil
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"os"

	"repro/lynx"
)

// paperRTT holds the paper's simple-remote-operation latencies in
// virtual ms, at 0 and 1000 B each way: Charlotte §3.3, Chrysalis §5.3.
var paperRTT = map[lynx.Substrate][2]float64{
	lynx.Charlotte: {57, 65},
	lynx.Chrysalis: {2.4, 4.6},
}

// echoOnce runs one echo RPC on a fresh System and returns its virtual
// round trip and whether the reply equalled the request.
func echoOnce(sub lynx.Substrate, seed uint64, payload int) (lynx.Duration, bool) {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: seed})
	data := bytes.Repeat([]byte{0x5a}, payload)
	var rtt lynx.Duration
	ok := false
	cl := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
		start := t.Now()
		reply, err := t.Connect(boot[0], "echo", lynx.Msg{Data: data})
		rtt = lynx.Duration(t.Now() - start)
		ok = err == nil && bytes.Equal(reply.Data, data)
		t.Destroy(boot[0])
	})
	sv := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
		t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{Data: req.Data()})
		})
	})
	sys.Join(cl, sv)
	if err := sys.Run(); err != nil {
		return 0, false
	}
	return rtt, ok
}

// checkPaperRTT reports each substrate's virtual echo round trip next
// to the paper's figure on standard error, and checks the substrates
// the paper measured against it within 12% (the E1/E4 tolerance). This
// is an output check, not a metric: virtual time never depends on the
// host.
func checkPaperRTT(c *runCtx) {
	for _, sub := range substrates {
		for i, payload := range []int{0, 1000} {
			rtt, ok := echoOnce(sub, 1, payload)
			ms := rtt.Milliseconds()
			paper, has := paperRTT[sub]
			if !has {
				c.tally.check(ok, "paper RTT %s %d B: echo failed", sub, payload)
				fmt.Fprintf(os.Stderr, "virtual RTT %-9s %4d B: %7.3f ms\n", sub, payload, ms)
				continue
			}
			fmt.Fprintf(os.Stderr, "virtual RTT %-9s %4d B: %7.3f ms (paper %g ms)\n", sub, payload, ms, paper[i])
			c.tally.check(ok && math.Abs(ms-paper[i]) <= 0.12*paper[i],
				"paper RTT %s %d B: %.3f ms, paper %g ms", sub, payload, ms, paper[i])
		}
	}
}

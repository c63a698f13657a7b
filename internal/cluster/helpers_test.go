package cluster

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"tempo/internal/command"
)

// testClient is this package's stand-in for the top-level client package
// (which imports this one, so in-package tests cannot): one blocking
// request at a time over a real client connection.
type testClient struct {
	conn    net.Conn
	br      *bufio.Reader
	reqID   uint64
	scratch []byte
	buf     []byte
}

// dialClient connects a testClient to a node.
func dialClient(addr string) (*testClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(ClientMagic2[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return &testClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *testClient) Close() error { return c.conn.Close() }

// Execute submits a command and returns the serving shard's results.
func (c *testClient) Execute(ops ...command.Op) ([][]byte, error) {
	c.reqID++
	frame := AppendSubmitRequest(nil, &c.scratch, c.reqID, 10*time.Second, ops)
	if _, err := c.conn.Write(frame); err != nil {
		return nil, err
	}
	body, err := ReadFrame(c.br, MaxClientFrameBytes, &c.buf)
	if err != nil {
		return nil, err
	}
	reqID, werr, values, err := DecodeClientReply(body)
	if err != nil {
		return nil, err
	}
	if reqID != c.reqID {
		return nil, errors.New("cluster: reply for another request")
	}
	if werr.Code != command.ErrCodeNone {
		return nil, errors.New("cluster: " + werr.Msg)
	}
	return values, nil
}

// Put writes a key.
func (c *testClient) Put(key string, value []byte) error {
	_, err := c.Execute(command.Op{Kind: command.Put, Key: command.Key(key), Value: value})
	return err
}

// Get reads a key.
func (c *testClient) Get(key string) ([]byte, error) {
	vals, err := c.Execute(command.Op{Kind: command.Get, Key: command.Key(key)})
	if err != nil || len(vals) == 0 {
		return nil, err
	}
	return vals[0], nil
}

// pipeWaiter builds a waiter whose reply the test reads back off a
// net.Pipe with readReply: the in-process window into the submission
// paths, completing through a real clientConn like any served request.
func pipeWaiter(t *testing.T, deadline time.Time) (*waiter, *bufio.Reader) {
	t.Helper()
	srv, cli := net.Pipe()
	cc := &clientConn{conn: srv, dead: make(chan struct{}), kick: make(chan struct{}, 1)}
	go cc.writeLoop()
	t.Cleanup(func() {
		close(cc.dead)
		srv.Close()
		cli.Close()
	})
	// A reply that never comes fails the read instead of hanging the test.
	cli.SetReadDeadline(time.Now().Add(30 * time.Second))
	return &waiter{deadline: deadline, cc: cc, reqID: 1}, bufio.NewReader(cli)
}

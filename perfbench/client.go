package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// conn is one keep-alive HTTP/1.1 connection that speaks just enough of
// the protocol to POST a body and read a Content-Length response, with
// buffers reused across requests. The load generator shares the two
// cores with the daemon it measures, so it must add as little CPU and
// garbage as it can; net/http's client costs several times the
// handler.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	host string
	req  []byte
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 4096), host: addr}, nil
}

func (c *conn) close() error { return c.c.Close() }

// post sends body to path, with extraHeader (a complete "Name: value\r\n"
// line, or empty) added, and returns the status and the response body,
// which is valid until the next post.
func (c *conn) post(path string, body []byte, extraHeader string) (int, []byte, error) {
	b := c.req[:0]
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n"...)
	b = append(b, extraHeader...)
	b = append(b, "\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err := c.c.Write(b); err != nil {
		return 0, nil, err
	}

	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed HTTP status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed HTTP status line %q", line)
	}
	length := -1
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 { // the blank line ending the header
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("malformed HTTP header %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("HTTP response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.r, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// Package httpmin is a deliberately small HTTP/1.0-subset server and
// client that runs over any io.ReadWriter — a plain TCP connection or
// an issl.Conn. It exists for the paper's motivating scenario: SSL
// "layers on top of TCP/IP to provide secure communications, e.g., to
// encrypt web pages with sensitive information" (§2). One request per
// connection (Connection: close semantics), GET and HEAD only.
package httpmin

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Request is a parsed request line plus headers.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
}

// Response is what a handler returns.
type Response struct {
	Status  int
	Reason  string
	Headers map[string]string
	Body    []byte
}

// Handler produces a response for one request.
type Handler func(Request) Response

// Errors surfaced by parsing.
var (
	ErrBadRequest  = errors.New("httpmin: malformed request")
	ErrBadResponse = errors.New("httpmin: malformed response")
)

// reasonFor supplies default reason phrases.
func reasonFor(status int) string {
	switch status {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	}
	return "Unknown"
}

// Text builds a 200 text/plain response.
func Text(status int, body string) Response {
	return Response{
		Status:  status,
		Headers: map[string]string{"Content-Type": "text/plain"},
		Body:    []byte(body),
	}
}

// NotFound is the standard 404.
func NotFound() Response { return Text(404, "not found\n") }

// Serve reads one request from conn, dispatches it, writes the
// response, and returns. The caller owns connection lifecycle.
func Serve(conn io.ReadWriter, h Handler) error {
	br := bufio.NewReader(conn)
	req, err := readRequest(br)
	if err != nil {
		writeResponse(conn, Text(400, "bad request\n"))
		return err
	}
	var resp Response
	switch req.Method {
	case "GET", "HEAD":
		resp = h(req)
	default:
		resp = Text(405, "method not allowed\n")
	}
	if req.Method == "HEAD" {
		if resp.Headers == nil {
			resp.Headers = map[string]string{}
		}
		resp.Headers["Content-Length"] = strconv.Itoa(len(resp.Body))
		resp.Body = nil
	}
	return writeResponse(conn, resp)
}

func readRequest(br *bufio.Reader) (Request, error) {
	line, err := readLine(br)
	if err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	parts := strings.Fields(line)
	if len(parts) < 2 || len(parts) > 3 {
		return Request{}, fmt.Errorf("%w: request line %q", ErrBadRequest, line)
	}
	req := Request{Method: parts[0], Path: parts[1], Proto: "HTTP/0.9",
		Headers: map[string]string{}}
	if len(parts) == 3 {
		req.Proto = parts[2]
	}
	if !strings.HasPrefix(req.Path, "/") {
		return Request{}, fmt.Errorf("%w: path %q", ErrBadRequest, req.Path)
	}
	if err := readHeaders(br, req.Headers); err != nil {
		return Request{}, err
	}
	return req, nil
}

func readHeaders(br *bufio.Reader, into map[string]string) error {
	for {
		line, err := readLine(br)
		if err != nil {
			return fmt.Errorf("%w: headers: %v", ErrBadRequest, err)
		}
		if line == "" {
			return nil
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return fmt.Errorf("%w: header %q", ErrBadRequest, line)
		}
		into[strings.TrimSpace(name)] = strings.TrimSpace(value)
	}
}

func readLine(br *bufio.Reader) (string, error) {
	s, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

func writeResponse(w io.Writer, resp Response) error {
	reason := resp.Reason
	if reason == "" {
		reason = reasonFor(resp.Status)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.0 %d %s\r\n", resp.Status, reason)
	headers := map[string]string{}
	for k, v := range resp.Headers {
		headers[k] = v
	}
	if _, ok := headers["Content-Length"]; !ok {
		headers["Content-Length"] = strconv.Itoa(len(resp.Body))
	}
	names := make([]string, 0, len(headers))
	for k := range headers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "%s: %s\r\n", k, headers[k])
	}
	sb.WriteString("\r\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	if len(resp.Body) > 0 {
		if _, err := w.Write(resp.Body); err != nil {
			return err
		}
	}
	return nil
}

// Get issues a GET over an established connection and parses the reply.
func Get(conn io.ReadWriter, path string) (Response, error) {
	return roundTrip(conn, "GET", path)
}

func roundTrip(conn io.ReadWriter, method, path string) (Response, error) {
	if _, err := fmt.Fprintf(conn, "%s %s HTTP/1.0\r\n\r\n", method, path); err != nil {
		return Response{}, err
	}
	br := bufio.NewReader(conn)
	status, err := readLine(br)
	if err != nil {
		return Response{}, fmt.Errorf("%w: status: %v", ErrBadResponse, err)
	}
	parts := strings.SplitN(status, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return Response{}, fmt.Errorf("%w: status line %q", ErrBadResponse, status)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return Response{}, fmt.Errorf("%w: status code %q", ErrBadResponse, parts[1])
	}
	resp := Response{Status: code, Headers: map[string]string{}}
	if len(parts) == 3 {
		resp.Reason = parts[2]
	}
	if err := readHeaders(br, resp.Headers); err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	if method == "HEAD" {
		return resp, nil
	}
	n := -1
	if cl, ok := resp.Headers["Content-Length"]; ok {
		n, err = strconv.Atoi(cl)
		if err != nil || n < 0 {
			return Response{}, fmt.Errorf("%w: Content-Length %q", ErrBadResponse, cl)
		}
	}
	if n >= 0 {
		resp.Body = make([]byte, n)
		if _, err := io.ReadFull(br, resp.Body); err != nil {
			return Response{}, fmt.Errorf("%w: body: %v", ErrBadResponse, err)
		}
	} else {
		// No length: read to EOF (HTTP/1.0 close semantics).
		body, err := io.ReadAll(br)
		if err != nil {
			return Response{}, err
		}
		resp.Body = body
	}
	return resp, nil
}

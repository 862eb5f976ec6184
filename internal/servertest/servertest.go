// Package servertest holds the HTTP client helpers shared by the
// lapserved smoke gates: `lapserved -smoke`, cmd/obssmoke and
// cmd/resumesmoke.
package servertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// PostJSON POSTs body to url as JSON and returns the response body. Any
// status other than 200 is an error carrying the URL, status and body.
func PostJSON(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, out)
	}
	return out, nil
}

// GetJSON GETs url and decodes the JSON body of a 200 response into dst.
func GetJSON(c *http.Client, url string, dst any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// ExpectStatus sends one method request to url, with an optional body,
// and reports an error unless the response status is want.
func ExpectStatus(c *http.Client, method, url string, body io.Reader, want int) error {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: got %d, want %d", method, url, resp.StatusCode, want)
	}
	return nil
}

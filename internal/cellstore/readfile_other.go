//go:build !unix

package cellstore

import "os"

// readFile is os.ReadFile where the raw unix reader does not build.
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

//go:build !unix

package blocking

import "os"

// mmapFile has no mmap to use on this platform: it reads the file onto
// the heap, so EMIX snapshots open here exactly as on unix.
func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	return readFile(f, size)
}

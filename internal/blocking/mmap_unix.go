//go:build unix

package blocking

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only. The returned release
// function unmaps; the file descriptor itself may be closed as soon as
// mmapFile returns (the mapping keeps the pages alive).
func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

//go:build unix

package cellstore

import "syscall"

// readFile reads the whole file at path in four system calls for a
// record that fits the first buffer: open, read, the read that sees
// EOF, and close. os.ReadFile makes about ten for the same file (fstat
// for sizing, fcntl and poller registration), which dominated a warm
// cell read. Interrupted calls retry.
func readFile(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	buf := make([]byte, 0, 512) // v3 cell records are 190-300 bytes
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, err
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

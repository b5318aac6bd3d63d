// FrameBuffer: reassembles length-framed records from a byte stream for
// the frame readers of the stream stack (TLS records, Tor cells, blinded
// tunnel chunks).
//
// Frames that arrive whole are read in place from the delivered bytes;
// only a frame split across deliveries is buffered, and the buffer's
// consumed prefix is erased once per delivery rather than once per frame.
// A delivery that re-enters feed() while frames are being read (a frame's
// handler made the stream below deliver again) is appended to the buffer,
// and the running call reads it next, in order.
#pragma once

#include <cstddef>

#include "util/bytes.h"

namespace sc {

class FrameBuffer {
 public:
  // `read(bytes)` handles the frame at the front of `bytes` if it is whole
  // and returns its size, or 0 when `bytes` holds only part of one. It may
  // hand the frame up, but must copy out what it keeps: the view can point
  // into the buffer. Reading stops as soon as `open()` turns false.
  template <typename Read, typename Open>
  void feed(ByteView data, Read&& read, Open&& open) {
    if (reading_ || !buffer_.empty()) {
      appendBytes(buffer_, data);
      if (reading_) return;  // the call running below this one reads them
      data = {};
    }
    reading_ = true;
    std::size_t used = 0;
    while (open()) {
      const std::size_t n = read(data.subspan(used));
      if (n == 0) break;
      used += n;
    }
    if (!open()) {
      reading_ = false;
      return;
    }
    // The unread tail goes ahead of anything a re-entrant delivery added.
    buffer_.insert(buffer_.begin(),
                   data.begin() + static_cast<std::ptrdiff_t>(used),
                   data.end());
    std::size_t off = 0;
    while (open()) {
      const std::size_t n = read(ByteView(buffer_).subspan(off));
      if (n == 0) break;
      off += n;
    }
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(off));
    reading_ = false;
  }

  // Bytes held back for a frame still arriving.
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  Bytes buffer_;
  bool reading_ = false;
};

}  // namespace sc
